// Adaptive demonstrates the Fig. 12 insight: the ratio between the
// latency-optimal broadcast probability and the flooding success rate
// is nearly constant across densities. A deployment can therefore tune
// itself without knowing its density — measure the success rate of a
// short flooding burst, multiply by a pre-calibrated constant, and use
// the result as the broadcast probability.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"sensornet/internal/core"
	"sensornet/internal/protocol"
)

func main() {
	c := core.Constraints{Latency: 5, Reach: 0.72, Budget: 35}

	// Calibrate the ratio once, on a single reference density.
	ref := core.DefaultModel()
	ref.Rho = 60
	refOpt, err := ref.OptimalProbability(core.MaxReachability, c, nil)
	if err != nil {
		log.Fatal(err)
	}
	refRate, err := ref.FloodingSuccessRate()
	if err != nil {
		log.Fatal(err)
	}
	ratio := refOpt.P / refRate
	fmt.Printf("calibration at rho=60: p*=%.2f, flooding success rate=%.3f, ratio=%.1f\n\n",
		refOpt.P, refRate, ratio)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rho\tmeasured success rate\tadaptive p\ttrue p*\treach (adaptive)\treach (true p*)")
	for _, rho := range []float64{20, 40, 80, 120, 140} {
		m := core.DefaultModel()
		m.Rho = rho

		// "Measure" the success rate by simulating one flooding burst
		// (in a live network this is a short calibration round; the
		// density itself is never used below).
		burst, err := m.SimulateProtocol(protocol.Flooding{}, 99)
		if err != nil {
			log.Fatal(err)
		}
		adaptiveP := clamp(ratio*burst.SuccessRate, 0.01, 1)

		trueOpt, err := m.OptimalProbability(core.MaxReachability, c, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%g\t%.3f\t%.2f\t%.2f\t%.3f\t%.3f\n",
			rho, burst.SuccessRate, adaptiveP, trueOpt.P,
			meanReach(m, adaptiveP), meanReach(m, trueOpt.P))
	}
	tw.Flush()
	fmt.Println("\nThe adaptive probability tracks the density-aware optimum without knowing rho.")
}

func meanReach(m core.NetworkModel, p float64) float64 {
	agg, err := m.SimulateMany(context.Background(), p, 7, 8)
	if err != nil {
		log.Fatal(err)
	}
	sum := 0.0
	for _, r := range agg.Runs {
		sum += r.Timeline.ReachabilityAtPhase(5)
	}
	return sum / float64(len(agg.Runs))
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

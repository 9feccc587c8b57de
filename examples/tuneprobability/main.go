// Tuneprobability walks the design methodology of Fig. 1(b) across a
// range of deployment densities: for each density it derives the
// latency-optimal broadcast probability from the analytical model and
// validates the choice against simulation, comparing with the naive
// density-oblivious default — simple flooding (p = 1).
//
// Flooding is near-optimal in sparse fields but collapses under
// collisions as the network densifies; the tuned probability holds its
// reachability roughly flat, which is the paper's central scalability
// claim.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"sensornet/internal/core"
)

func main() {
	c := core.Constraints{Latency: 5, Reach: 0.72, Budget: 35}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rho\tp* (analytic)\tpredicted reach\tsim reach @ p*\tsim reach @ flooding")
	for _, rho := range []float64{20, 60, 100, 140} {
		m := core.DefaultModel()
		m.Rho = rho

		opt, err := m.OptimalProbability(core.MaxReachability, c, nil)
		if err != nil {
			log.Fatal(err)
		}
		tuned := simulatedReach(m, opt.P, c.Latency)
		flood := simulatedReach(m, 1, c.Latency)
		fmt.Fprintf(tw, "%g\t%.2f\t%.3f\t%.3f\t%.3f\n",
			rho, opt.P, opt.Value, tuned, flood)
	}
	tw.Flush()
	fmt.Println("\nThe analytic model is optimistic in absolute terms (it ignores stochastic")
	fmt.Println("die-out), but its tuned probability keeps simulated reachability roughly flat")
	fmt.Println("across a 7x density range while flooding degrades steadily.")
}

func simulatedReach(m core.NetworkModel, p, latency float64) float64 {
	agg, err := m.SimulateMany(context.Background(), p, 1, 10)
	if err != nil {
		log.Fatal(err)
	}
	sum := 0.0
	for _, r := range agg.Runs {
		sum += r.Timeline.ReachabilityAtPhase(latency)
	}
	return sum / float64(len(agg.Runs))
}

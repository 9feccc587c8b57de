// Quickstart: define an abstract network model, predict PB_CAM's
// behaviour analytically, pick a good broadcast probability, and check
// the prediction against the simulator — the whole Fig. 1(b) loop in a
// few lines.
package main

import (
	"context"
	"fmt"
	"log"

	"sensornet/internal/core"
)

func main() {
	// The abstract network model: a disk of 5 transmission radii,
	// 3 backoff slots per phase, ~100 neighbours per node, collision
	// aware links.
	m := core.DefaultModel()
	m.Rho = 100

	// Ask the analytical framework for the probability that maximises
	// reachability within 5 time phases.
	c := core.Constraints{Latency: 5, Reach: 0.72, Budget: 35}
	opt, err := m.OptimalProbability(core.MaxReachability, c, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: N=%.0f nodes, rho=%g neighbours/node\n", m.N(), m.Rho)
	fmt.Printf("analytic optimum: p*=%.2f predicting %.1f%% reachability in %g phases\n",
		opt.P, opt.Value*100, c.Latency)

	// Validate on the simulator (10 random deployments).
	agg, err := m.SimulateMany(context.Background(), opt.P, 1, 10)
	if err != nil {
		log.Fatal(err)
	}
	sum := 0.0
	for _, r := range agg.Runs {
		sum += r.Timeline.ReachabilityAtPhase(c.Latency)
	}
	fmt.Printf("simulated:        %.1f%% reachability (mean of %d runs)\n",
		sum/float64(len(agg.Runs))*100, len(agg.Runs))

	// Compare with naive flooding under the same collision-aware model.
	flood, err := m.Simulate(1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flooding (p=1):   %.1f%% reachability, %d broadcasts\n",
		flood.Timeline.ReachabilityAtPhase(c.Latency)*100, flood.Broadcasts)
}

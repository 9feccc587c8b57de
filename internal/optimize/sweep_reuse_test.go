package optimize

import (
	"context"
	"math"
	"testing"

	"sensornet/internal/metrics"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
)

// TestSweepSimMatchesExplicitDeployments pins SweepSim's common-random-
// numbers contract: the sweep must equal running sim.Run by hand with
// replication i's seed and the deployment ReplicationDeployments hands
// out for it, shared across every grid probability. Exact equality —
// the sweep is the same runs in the same aggregation order, so every
// derived metric matches bit for bit (NaN positions included).
func TestSweepSimMatchesExplicitDeployments(t *testing.T) {
	base := sim.Config{P: 4, S: 3, Rho: 40, Seed: 900}
	grid := []float64{0.2, 0.5, 1}
	cons := Constraints{Latency: 5, Reach: 0.63, Budget: 80}
	const runs, workers = 4, 2

	got, err := SweepSim(context.Background(), base, grid, cons, runs, workers)
	if err != nil {
		t.Fatal(err)
	}

	deps, err := sim.ReplicationDeployments(base, runs)
	if err != nil {
		t.Fatal(err)
	}
	for gi, p := range grid {
		results := make([]*sim.Result, runs)
		for i := 0; i < runs; i++ {
			cfg := base
			cfg.Protocol = protocol.Probability{P: p}
			cfg.Seed = base.Seed + int64(i)
			cfg.Deployment = deps[i]
			r, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = r
		}
		agg := &sim.Aggregate{Runs: results}
		want := Point{P: p}
		want.ReachAtL = metrics.Summarize(agg.ReachabilityAtPhase(cons.Latency)).Mean
		want.Latency = meanOrNaN(agg.LatencyToReach(cons.Reach))
		want.Broadcasts = meanOrNaN(agg.BroadcastsToReach(cons.Reach))
		want.ReachAtBudget = metrics.Summarize(agg.ReachabilityAtBudget(cons.Budget)).Mean
		want.SuccessRate = metrics.Summarize(agg.SuccessRates()).Mean
		finals := make([]float64, len(agg.Runs))
		for i, r := range agg.Runs {
			finals[i] = r.Timeline.FinalReachability()
		}
		want.Final = metrics.Summarize(finals).Mean

		for name, pair := range map[string][2]float64{
			"P":             {got[gi].P, want.P},
			"ReachAtL":      {got[gi].ReachAtL, want.ReachAtL},
			"Latency":       {got[gi].Latency, want.Latency},
			"Broadcasts":    {got[gi].Broadcasts, want.Broadcasts},
			"ReachAtBudget": {got[gi].ReachAtBudget, want.ReachAtBudget},
			"SuccessRate":   {got[gi].SuccessRate, want.SuccessRate},
			"Final":         {got[gi].Final, want.Final},
		} {
			sweep, manual := pair[0], pair[1]
			if math.IsNaN(sweep) && math.IsNaN(manual) {
				continue
			}
			if sweep != manual {
				t.Errorf("p=%v %s: sweep %v, manual %v", p, name, sweep, manual)
			}
		}
	}
}

// TestSweepSimHonoursExplicitDeployment checks the opt-out: a sweep
// whose base pins Config.Deployment must use that deployment for every
// replication, matching plain RunMany on the same config.
func TestSweepSimHonoursExplicitDeployment(t *testing.T) {
	base := sim.Config{P: 4, S: 3, Rho: 40, Seed: 901}
	deps, err := sim.ReplicationDeployments(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	base.Deployment = deps[0]
	cons := Constraints{Latency: 5, Reach: 0.63, Budget: 80}

	got, err := SweepSim(context.Background(), base, []float64{0.4}, cons, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Protocol = protocol.Probability{P: 0.4}
	agg, err := sim.RunMany(context.Background(), cfg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.Summarize(agg.ReachabilityAtPhase(cons.Latency)).Mean
	if got[0].ReachAtL != want {
		t.Fatalf("ReachAtL: sweep %v, RunMany %v", got[0].ReachAtL, want)
	}
}

package sim

import (
	"context"
	"math"
	"testing"

	"sensornet/internal/metrics"
)

func TestRunManyBasics(t *testing.T) {
	agg, err := RunMany(context.Background(), paperCfg(40, 0.3, 100), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Runs) != 8 {
		t.Fatalf("got %d runs, want 8", len(agg.Runs))
	}
	if !agg.Mean.Valid() {
		t.Fatal("mean timeline invalid")
	}
}

func TestRunManyRejectsZeroRuns(t *testing.T) {
	if _, err := RunMany(context.Background(), paperCfg(40, 0.3, 1), 0, 1); err == nil {
		t.Fatal("expected error for zero runs")
	}
}

func TestRunManySeedsDiffer(t *testing.T) {
	agg, err := RunMany(context.Background(), paperCfg(40, 0.3, 200), 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, r := range agg.Runs {
		distinct[r.Reached] = true
	}
	if len(distinct) < 2 {
		t.Fatal("runs look identical; seeds may not vary")
	}
}

func TestRunManyDeterministicAggregate(t *testing.T) {
	a, err := RunMany(context.Background(), paperCfg(40, 0.3, 300), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMany(context.Background(), paperCfg(40, 0.3, 300), 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		if a.Runs[i].Reached != b.Runs[i].Reached {
			t.Fatalf("run %d differs across worker counts", i)
		}
	}
}

func TestAggregateMetricSamples(t *testing.T) {
	agg, err := RunMany(context.Background(), paperCfg(60, 0.2, 400), 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	reach := agg.ReachabilityAtPhase(5)
	if len(reach) != 6 {
		t.Fatalf("sample count %d, want 6", len(reach))
	}
	s := metrics.Summarize(reach)
	if s.Count != 6 || s.Mean <= 0 || s.Mean > 1 {
		t.Fatalf("reach summary implausible: %+v", s)
	}

	lat := agg.LatencyToReach(0.5)
	for _, v := range lat {
		if !math.IsNaN(v) && v <= 0 {
			t.Fatalf("non-positive latency sample %v", v)
		}
	}

	bc := agg.BroadcastsToReach(0.3)
	budget := agg.ReachabilityAtBudget(50)
	if len(bc) != 6 || len(budget) != 6 {
		t.Fatal("sample lengths wrong")
	}
	for _, v := range budget {
		if v < 0 || v > 1 {
			t.Fatalf("budget reach sample %v outside [0,1]", v)
		}
	}

	rates := agg.SuccessRates()
	for _, v := range rates {
		if v < 0 || v > 1 {
			t.Fatalf("success rate sample %v outside [0,1]", v)
		}
	}
}

func TestLatencyInfeasibleRunsAreNaN(t *testing.T) {
	// p = 0: only the source's neighbours ever receive; 90% reach is
	// infeasible in every run.
	agg, err := RunMany(context.Background(), paperCfg(40, 0, 500), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range agg.LatencyToReach(0.9) {
		if !math.IsNaN(v) {
			t.Fatalf("expected NaN for infeasible run, got %v", v)
		}
	}
	if got := metrics.FeasibleFraction(agg.LatencyToReach(0.9)); got != 0 {
		t.Fatalf("feasible fraction %v, want 0", got)
	}
}

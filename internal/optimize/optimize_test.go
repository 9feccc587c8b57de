package optimize

import (
	"math"
	"testing"

	"sensornet/internal/analytic"
	"sensornet/internal/mathx"
)

func paperConstraints() Constraints {
	return Constraints{Latency: 5, Reach: 0.72, Budget: 35}
}

func analyticBase(rho float64) analytic.Config {
	return analytic.Config{P: 5, S: 3, Rho: rho}
}

func TestSweepAnalyticEmptyGrid(t *testing.T) {
	if _, err := SweepAnalytic(analyticBase(60), nil, paperConstraints()); err == nil {
		t.Fatal("empty grid should error")
	}
}

func TestSweepAnalyticPropagatesErrors(t *testing.T) {
	bad := analyticBase(60)
	bad.P = 0
	if _, err := SweepAnalytic(bad, []float64{0.1}, paperConstraints()); err == nil {
		t.Fatal("invalid base config should error")
	}
}

func TestSweepAnalyticGridOrderPreserved(t *testing.T) {
	grid := []float64{0.1, 0.3, 0.7}
	pts, err := SweepAnalytic(analyticBase(60), grid, paperConstraints())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range grid {
		if pts[i].P != p {
			t.Fatalf("point %d has p=%v, want %v", i, pts[i].P, p)
		}
	}
}

func TestAnalyticOptimaMatchPaperShape(t *testing.T) {
	grid := mathx.Range(0.02, 1, 0.02)
	c := paperConstraints()

	optReach := map[float64]Optimum{}
	for _, rho := range []float64{20, 80, 140} {
		pts, err := SweepAnalytic(analyticBase(rho), grid, c)
		if err != nil {
			t.Fatal(err)
		}
		o, ok := MaxReachAtLatency(pts)
		if !ok {
			t.Fatalf("rho %v: no optimum", rho)
		}
		optReach[rho] = o
	}
	// Fig. 4(b): optimal p decreases with density...
	if !(optReach[20].P > optReach[80].P && optReach[80].P >= optReach[140].P) {
		t.Fatalf("optimal p not decreasing: %v", optReach)
	}
	// ...and the achieved reachability stays roughly flat.
	if math.Abs(optReach[20].Value-optReach[140].Value) > 0.12 {
		t.Fatalf("optimal reach not flat: %v vs %v",
			optReach[20].Value, optReach[140].Value)
	}
}

func TestDualityOfLatencyAndReachOptima(t *testing.T) {
	// Fig. 5(b) equals Fig. 4(b): the p minimising latency-to-R* is
	// the p maximising reach-in-L when R* is the optimal reach level.
	grid := mathx.Range(0.02, 1, 0.02)
	rho := 80.0
	pts, err := SweepAnalytic(analyticBase(rho), grid, paperConstraints())
	if err != nil {
		t.Fatal(err)
	}
	reachOpt, _ := MaxReachAtLatency(pts)
	// Re-sweep with the reach constraint set to the achieved optimum.
	c2 := paperConstraints()
	c2.Reach = reachOpt.Value - 1e-9
	pts2, err := SweepAnalytic(analyticBase(rho), grid, c2)
	if err != nil {
		t.Fatal(err)
	}
	latOpt, ok := MinLatency(pts2)
	if !ok {
		t.Fatal("no latency optimum")
	}
	if math.Abs(latOpt.P-reachOpt.P) > 0.1 {
		t.Fatalf("duality broken: latency-optimal p %v vs reach-optimal p %v",
			latOpt.P, reachOpt.P)
	}
	if math.Abs(latOpt.Value-5) > 0.3 {
		t.Fatalf("latency at optimum %v, want ~5 phases", latOpt.Value)
	}
}

func TestEnergyOptimumSmallAndDensityInsensitive(t *testing.T) {
	// Fig. 6(b): energy-optimal p stays in (0, ~0.1] across densities.
	grid := mathx.Range(0.01, 0.5, 0.01)
	for _, rho := range []float64{40, 100, 140} {
		pts, err := SweepAnalytic(analyticBase(rho), grid, paperConstraints())
		if err != nil {
			t.Fatal(err)
		}
		o, ok := MinBroadcasts(pts)
		if !ok {
			t.Fatalf("rho %v: no energy optimum", rho)
		}
		if o.P > 0.15 {
			t.Fatalf("rho %v: energy-optimal p = %v, want small", rho, o.P)
		}
	}
}

func TestBudgetOptimumNearEnergyOptimum(t *testing.T) {
	// Fig. 7(b) ~ Fig. 6(b): the duals share their optimal p region.
	grid := mathx.Range(0.01, 0.5, 0.01)
	pts, err := SweepAnalytic(analyticBase(100), grid, paperConstraints())
	if err != nil {
		t.Fatal(err)
	}
	energy, ok1 := MinBroadcasts(pts)
	budget, ok2 := MaxReachAtBudget(pts)
	if !ok1 || !ok2 {
		t.Fatal("missing optima")
	}
	if math.Abs(energy.P-budget.P) > 0.1 {
		t.Fatalf("dual optima diverge: energy %v vs budget %v", energy.P, budget.P)
	}
}

func TestInfeasiblePointsAreNaN(t *testing.T) {
	// p = 0.01 at a low density cannot reach 72%.
	pts, err := SweepAnalytic(analyticBase(20), []float64{0.01}, paperConstraints())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(pts[0].Latency) || !math.IsNaN(pts[0].Broadcasts) {
		t.Fatalf("expected NaN for infeasible point, got %+v", pts[0])
	}
}

func TestPickSkipsNaN(t *testing.T) {
	pts := []Point{
		{P: 0.1, Latency: math.NaN()},
		{P: 0.2, Latency: 6},
		{P: 0.3, Latency: 4},
	}
	o, ok := MinLatency(pts)
	if !ok || o.P != 0.3 || o.Value != 4 {
		t.Fatalf("MinLatency = %+v, %v", o, ok)
	}
}

func TestPickAllNaN(t *testing.T) {
	pts := []Point{{P: 0.1, Latency: math.NaN()}}
	if _, ok := MinLatency(pts); ok {
		t.Fatal("all-NaN sweep should report no optimum")
	}
}

package optimize

import (
	"math"
	"testing"

	"sensornet/internal/analytic"
)

func TestRefineMaxQuadratic(t *testing.T) {
	f := func(x float64) float64 { return -(x - 0.3) * (x - 0.3) }
	x, v := RefineMax(f, 0, 1, 60)
	if math.Abs(x-0.3) > 1e-6 {
		t.Fatalf("argmax = %v, want 0.3", x)
	}
	if v > 0 || v < -1e-10 {
		t.Fatalf("max value = %v, want ~0", v)
	}
}

func TestRefineMinQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 0.7) * (x - 0.7) }
	x, v := RefineMin(f, 0, 1, 60)
	if math.Abs(x-0.7) > 1e-6 {
		t.Fatalf("argmin = %v, want 0.7", x)
	}
	if v < 0 || v > 1e-10 {
		t.Fatalf("min value = %v, want ~0", v)
	}
}

func TestRefineMaxReversedBounds(t *testing.T) {
	f := func(x float64) float64 { return -x * x }
	x, _ := RefineMax(f, 1, -1, 60)
	if math.Abs(x) > 1e-4 {
		t.Fatalf("argmax with reversed bounds = %v, want 0", x)
	}
}

func TestRefineMaxBudgetRespected(t *testing.T) {
	calls := 0
	f := func(x float64) float64 { calls++; return -x * x }
	RefineMax(f, 0, 1, 10)
	if calls > 10 {
		t.Fatalf("used %d evaluations, cap was 10", calls)
	}
}

func TestRefineOptimumSharpensGridResult(t *testing.T) {
	// Coarse sweep of the analytic reachability at rho=100, then
	// refinement: the refined value must be at least the grid value
	// and the refined p must stay within the bracketing interval.
	cfg := analytic.Config{P: 5, S: 3, Rho: 100}
	c := Constraints{Latency: 5, Reach: 0.72, Budget: 35}
	grid := []float64{0.02, 0.06, 0.1, 0.14, 0.2, 0.3, 0.5, 1}
	pts, err := SweepAnalytic(cfg, grid, c)
	if err != nil {
		t.Fatal(err)
	}
	gridOpt, ok := MaxReachAtLatency(pts)
	if !ok {
		t.Fatal("no grid optimum")
	}
	eval := func(p float64) float64 {
		cc := cfg
		cc.Prob = p
		res, err := analytic.Run(cc)
		if err != nil {
			return math.NaN()
		}
		return res.Timeline.ReachabilityAtPhase(c.Latency)
	}
	refined := RefineOptimum(pts, gridOpt, eval, true, 20)
	if refined.Value < gridOpt.Value {
		t.Fatalf("refinement regressed: %v < %v", refined.Value, gridOpt.Value)
	}
	if refined.P < 0.02 || refined.P > 1 {
		t.Fatalf("refined p %v escaped the grid", refined.P)
	}
}

func TestRefineOptimumDegenerateCases(t *testing.T) {
	eval := func(p float64) float64 { return p }
	if got := RefineOptimum(nil, Optimum{P: 0.5, Value: 0.5}, eval, true, 10); got.P != 0.5 {
		t.Fatal("empty sweep should return the input optimum")
	}
	pts := []Point{{P: 0.1}, {P: 0.2}}
	if got := RefineOptimum(pts, Optimum{P: 0.9, Value: 1, Index: len(pts)}, eval, true, 10); got.P != 0.9 {
		t.Fatal("optimum not on the grid should be returned unchanged")
	}
}

func TestRefineOptimumAllInfeasible(t *testing.T) {
	pts := []Point{{P: 0.1}, {P: 0.2}, {P: 0.3}}
	eval := func(p float64) float64 { return math.NaN() }
	got := RefineOptimum(pts, Optimum{P: 0.2, Value: 5, Index: 1}, eval, false, 10)
	if got.P != 0.2 || got.Value != 5 {
		t.Fatalf("all-NaN refinement should keep the grid optimum, got %+v", got)
	}
}

func TestRefineOptimumMinimise(t *testing.T) {
	pts := []Point{{P: 0.1}, {P: 0.5}, {P: 0.9}}
	eval := func(p float64) float64 { return (p - 0.45) * (p - 0.45) }
	got := RefineOptimum(pts, Optimum{P: 0.5, Value: eval(0.5), Index: 1}, eval, false, 40)
	if math.Abs(got.P-0.45) > 1e-4 {
		t.Fatalf("refined argmin %v, want 0.45", got.P)
	}
}

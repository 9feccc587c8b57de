package core

import (
	"context"
	"math"
	"testing"

	"sensornet/internal/optimize"
	"sensornet/internal/protocol"
)

func TestDefaultModelValid(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.N() != 60*25 {
		t.Fatalf("N = %v, want 1500", m.N())
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	for _, m := range []NetworkModel{
		{P: 0, S: 3, Rho: 60},
		{P: 5, S: 0, Rho: 60},
		{P: 5, S: 3, Rho: 0},
		{P: 5, S: 3, Rho: math.NaN()},
		{P: 5, S: 3, Rho: math.Inf(1)},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("expected error for %+v", m)
		}
	}
	if _, err := DefaultModel().Analyze(math.NaN()); err == nil {
		t.Error("expected error for a NaN probability")
	}
}

func TestAnalyzeCAM(t *testing.T) {
	m := DefaultModel()
	tl, err := m.Analyze(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Valid() {
		t.Fatal("invalid analytic timeline")
	}
	if tl.ReachabilityAtPhase(5) <= 0 {
		t.Fatal("no progress predicted")
	}
}

func TestAnalyzeCFMFloodingOnly(t *testing.T) {
	m := DefaultModel()
	m.Comm = CFM
	tl, err := m.Analyze(1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.FinalReachability() != 1 {
		t.Fatalf("CFM flooding reach = %v, want 1", tl.FinalReachability())
	}
	if _, err := m.Analyze(0.5); err == nil {
		t.Fatal("CFM analysis should reject p != 1")
	}
}

func TestAnalyzeInvalidModel(t *testing.T) {
	m := NetworkModel{}
	if _, err := m.Analyze(0.5); err == nil {
		t.Fatal("invalid model should error")
	}
}

func TestOptimalProbabilityObjectives(t *testing.T) {
	m := DefaultModel()
	m.Rho = 100
	c := Constraints{Latency: 5, Reach: 0.72, Budget: 35}
	grid := []float64{0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1}

	reach, err := m.OptimalProbability(MaxReachability, c, grid)
	if err != nil {
		t.Fatal(err)
	}
	if reach.P >= 0.7 {
		t.Fatalf("reach-optimal p = %v, expected moderate", reach.P)
	}
	lat, err := m.OptimalProbability(MinLatency, c, grid)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat.P-reach.P) > 0.2 {
		t.Fatalf("duality: latency-optimal %v far from reach-optimal %v", lat.P, reach.P)
	}
	energy, err := m.OptimalProbability(MinEnergy, c, grid)
	if err != nil {
		t.Fatal(err)
	}
	if energy.P > 0.2 {
		t.Fatalf("energy-optimal p = %v, expected small", energy.P)
	}
	budget, err := m.OptimalProbability(MaxReachabilityAtBudget, c, grid)
	if err != nil {
		t.Fatal(err)
	}
	if budget.P > 0.2 {
		t.Fatalf("budget-optimal p = %v, expected small", budget.P)
	}
}

func TestOptimalProbabilityDefaultGrid(t *testing.T) {
	m := DefaultModel()
	o, err := m.OptimalProbability(MaxReachability,
		Constraints{Latency: 5, Reach: 0.72, Budget: 35}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.P <= 0 || o.P > 1 {
		t.Fatalf("optimal p %v outside (0,1]", o.P)
	}
}

func TestOptimalProbabilityUnknownObjective(t *testing.T) {
	m := DefaultModel()
	if _, err := m.OptimalProbability(Objective(99),
		Constraints{Latency: 5}, []float64{0.1}); err == nil {
		t.Fatal("unknown objective should error")
	}
}

func TestOptimalProbabilityInfeasible(t *testing.T) {
	m := DefaultModel()
	m.Rho = 20
	// At rho = 20 and p = 0.01 too few nodes relay per phase; a 72%
	// reachability target is never met (cf. Fig. 5's missing points).
	if _, err := m.OptimalProbability(MinLatency,
		Constraints{Latency: 5, Reach: 0.72, Budget: 35}, []float64{0.01}); err == nil {
		t.Fatal("infeasible constraint should error")
	}
}

func TestSimulateConsistency(t *testing.T) {
	m := DefaultModel()
	m.Rho = 40
	res, err := m.Simulate(0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1000 {
		t.Fatalf("simulated N = %d, want 1000", res.N)
	}
	if !res.Timeline.Valid() {
		t.Fatal("invalid simulated timeline")
	}
}

func TestSimulateAsync(t *testing.T) {
	m := DefaultModel()
	m.Rho = 30
	res, err := m.SimulateAsync(0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Timeline.Valid() {
		t.Fatal("invalid async timeline")
	}
}

func TestSimulateProtocolFlooding(t *testing.T) {
	m := DefaultModel()
	m.Rho = 30
	m.Comm = CFM
	res, err := m.SimulateProtocol(protocol.Flooding{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != res.Connected {
		t.Fatalf("CFM flooding reached %d of %d", res.Reached, res.Connected)
	}
}

func TestSimulateMany(t *testing.T) {
	m := DefaultModel()
	m.Rho = 30
	agg, err := m.SimulateMany(context.Background(), 0.3, 11, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Runs) != 5 {
		t.Fatalf("runs = %d, want 5", len(agg.Runs))
	}
}

func TestAnalysisPredictsSimulationBallpark(t *testing.T) {
	// The methodology claim: the analytic prediction tracks the
	// simulation. The paper's own calibration has a systematic
	// optimistic offset (0.72 analytic vs 0.63 simulated at the
	// optimum) because the mean-field recursion ignores stochastic
	// die-out; we assert the same relationship — close at moderate p,
	// analytic never pessimistic by much.
	m := DefaultModel()
	m.Rho = 80
	simReach := func(p float64) float64 {
		agg, err := m.SimulateMany(context.Background(), p, 5, 8)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, r := range agg.Runs {
			sum += r.Timeline.ReachabilityAtPhase(5)
		}
		return sum / float64(len(agg.Runs))
	}
	anaReach := func(p float64) float64 {
		tl, err := m.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		return tl.ReachabilityAtPhase(5)
	}
	for _, p := range []float64{0.25, 0.5, 1} {
		pred, got := anaReach(p), simReach(p)
		if math.Abs(pred-got) > 0.3 {
			t.Fatalf("p=%v: analytic %v vs simulated %v diverge", p, pred, got)
		}
		if got > pred+0.1 {
			t.Fatalf("p=%v: simulation %v should not beat the collision-free-ish analysis %v",
				p, got, pred)
		}
	}
}

func TestFloodingSuccessRate(t *testing.T) {
	m := DefaultModel()
	m.Rho = 100
	rate, err := m.FloodingSuccessRate()
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 || rate >= 0.5 {
		t.Fatalf("flooding success rate %v implausible at rho=100", rate)
	}
}

func TestObjectiveStrings(t *testing.T) {
	sels := optimize.Selectors()
	for _, c := range []struct {
		o        Objective
		want     string
		selector string // the optimize.Selectors() entry the value indexes
	}{
		{MaxReachability, "max-reachability@latency", "reach"},
		{MinLatency, "min-latency@reachability", "latency"},
		{MinEnergy, "min-energy@reachability", "energy"},
		{MaxReachabilityAtBudget, "max-reachability@budget", "budget"},
		{Objective(42), "unknown", ""},
	} {
		if got := c.o.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int(c.o), got, c.want)
		}
		if c.selector != "" && sels[c.o].Name != c.selector {
			t.Errorf("Objective %v indexes selector %q, want %q", c.o, sels[c.o].Name, c.selector)
		}
	}
}

func TestCostsOrdering(t *testing.T) {
	cam := DefaultModel()
	cfm := DefaultModel()
	cfm.Comm = CFM
	if cam.Costs().Energy > cfm.Costs().Energy {
		t.Fatal("e_a should not exceed e_f")
	}
}

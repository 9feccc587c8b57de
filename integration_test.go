package sensornet_test

// End-to-end integration tests: the full stack (deployment → channel →
// protocol → simulator → metrics) cross-checked against the analytical
// framework, asserting the paper's headline claims on small campaigns.

import (
	"context"
	"math"
	"strings"
	"testing"

	"sensornet/internal/core"
	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/metrics"
)

func TestEndToEndHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end campaign in -short mode")
	}
	pre := experiments.QuickAnalytic()
	surf, err := experiments.AnalyticSurfaceCtx(context.Background(), engine.New(engine.Config{}), pre)
	if err != nil {
		t.Fatal(err)
	}

	// Claim 1 (Figs. 4-5): the latency-type optimal probability
	// decreases rapidly with density.
	fig4 := experiments.Fig4(surf)
	optP := fig4.Series["optimalP"]
	if !(optP[0] > 2*optP[len(optP)-1]) {
		t.Fatalf("claim 1: optimal p should drop sharply: %v", optP)
	}

	// Claim 2 (Figs. 6-7): the energy-type optimal probability stays
	// small (paper: within ~0.1) over the whole density range.
	fig6 := experiments.Fig6(surf)
	for i, p := range fig6.Series["optimalP"] {
		if !math.IsNaN(p) && p > 0.15 {
			t.Fatalf("claim 2: energy-optimal p[%d]=%v too large", i, p)
		}
	}

	// Claim 3 (Fig. 4b): with the right p, PB_CAM's achievable
	// reachability is density-independent.
	vals := fig4.Series["optimalValue"]
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi-lo > 0.12 {
		t.Fatalf("claim 3: optimal reachability varies too much: %v", vals)
	}

	// Claim 4 (Fig. 12): optimal-p / flooding-success-rate is nearly
	// density-invariant.
	fig12, err := experiments.Fig12(surf)
	if err != nil {
		t.Fatal(err)
	}
	ratios := fig12.Series["ratio"]
	rlo, rhi := math.Inf(1), math.Inf(-1)
	for _, r := range ratios {
		if math.IsNaN(r) {
			continue
		}
		rlo, rhi = math.Min(rlo, r), math.Max(rhi, r)
	}
	if rhi/rlo > 2 {
		t.Fatalf("claim 4: ratio not stable: %v", ratios)
	}
}

func TestEndToEndMethodologyLoop(t *testing.T) {
	// The Fig. 1(b) loop at one density: analyse → optimise → simulate,
	// then confirm the tuned probability beats flooding in simulation.
	m := core.DefaultModel()
	m.Rho = 120
	c := core.Constraints{Latency: 5, Reach: 0.72, Budget: 35}
	opt, err := m.OptimalProbability(core.MaxReachability, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(p float64) float64 {
		agg, err := m.SimulateMany(context.Background(), p, 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.Summarize(agg.ReachabilityAtPhase(5)).Mean
	}
	tuned, flood := mean(opt.P), mean(1)
	if tuned <= flood {
		t.Fatalf("tuned p=%.2f (%v) should beat flooding (%v) at rho=120",
			opt.P, tuned, flood)
	}
}

func TestEndToEndCampaignReport(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign render in -short mode")
	}
	pre := experiments.QuickAnalytic()
	pre.Rhos = []float64{40, 120}
	var b strings.Builder
	c := experiments.Campaign{Analytic: pre, SkipSim: true, Extras: true}
	figs, err := c.Run(context.Background(), &b)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 11 { // fig4..7, fig12, cfm, carrier, costfn, slots, field, percolation
		t.Fatalf("campaign produced %d figures, want 11", len(figs))
	}
	out := b.String()
	for _, want := range []string{"fig4", "fig7", "fig12", "CFM", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("campaign report missing %q", want)
		}
	}
}

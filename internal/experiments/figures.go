package experiments

import (
	"context"
	"fmt"
	"math"

	"sensornet/internal/analytic"
	"sensornet/internal/engine"
	"sensornet/internal/optimize"
	"sensornet/internal/protocol"
	"sensornet/internal/viz"
)

// figure assembles the standard two-table figure: the metric over the
// (p, ρ) grid, and the optimal probability per density with its
// achieved value.
func figure(s *Surface, id, title, metric string,
	val func(optimize.Point) float64,
	best func([]optimize.Point) (optimize.Optimum, bool)) *FigureResult {

	f := &FigureResult{ID: id, Title: title, Series: map[string][]float64{}}

	grid := Table{Title: fmt.Sprintf("%s vs broadcast probability and density", metric)}
	grid.Header = []string{"p"}
	for _, rho := range s.Pre.Rhos {
		grid.Header = append(grid.Header, fmt.Sprintf("rho=%g", rho))
	}
	for j, p := range s.Pre.Grid {
		row := []string{fmt.Sprintf("%.2f", p)}
		for i := range s.Pre.Rhos {
			row = append(row, fmtF(val(s.Points[i][j])))
		}
		grid.Add(row...)
	}

	opt := Table{Title: fmt.Sprintf("optimal probability and %s per density", metric)}
	opt.Header = []string{"rho", "optimal p", metric}
	var optP, optV []float64
	for i, rho := range s.Pre.Rhos {
		o, ok := best(s.Points[i])
		if !ok {
			opt.Add(fmt.Sprintf("%g", rho), "-", "-")
			optP = append(optP, math.NaN())
			optV = append(optV, math.NaN())
			continue
		}
		opt.Add(fmt.Sprintf("%g", rho), fmt.Sprintf("%.2f", o.P), fmtF(o.Value))
		optP = append(optP, o.P)
		optV = append(optV, o.Value)
	}
	f.Series["optimalP"] = optP
	f.Series["optimalValue"] = optV

	// The flooding column (p = 1) is the paper's baseline comparison.
	var flood []float64
	last := len(s.Pre.Grid) - 1
	for i := range s.Pre.Rhos {
		flood = append(flood, val(s.Points[i][last]))
	}
	f.Series["flooding"] = flood

	// Curve chart: the metric over p, one series per density.
	chart := viz.NewChart(fmt.Sprintf("%s vs p", metric))
	chart.XLabel, chart.YLabel = "p", metric
	for i, rho := range s.Pre.Rhos {
		ys := make([]float64, len(s.Pre.Grid))
		for j := range s.Pre.Grid {
			ys[j] = val(s.Points[i][j])
		}
		_ = chart.Add(fmt.Sprintf("rho=%g", rho), s.Pre.Grid, ys)
	}
	optChart := viz.NewChart("optimal p vs density")
	optChart.XLabel, optChart.YLabel = "rho", "p*"
	_ = optChart.Add("optimal p", s.Pre.Rhos, optP)
	f.Charts = []string{chart.Render(), optChart.Render()}

	f.Tables = []Table{grid, opt}
	return f
}

// Fig4 reproduces Fig. 4: analytic reachability of PB_CAM within the
// latency constraint, and the optimal probability curve.
func Fig4(s *Surface) *FigureResult {
	f := figure(s, "fig4", "Reachability of PB_CAM in 5 time phases (analytic)",
		"reachability",
		func(p optimize.Point) float64 { return p.ReachAtL },
		optimize.MaxReachAtLatency)
	f.Notes = append(f.Notes,
		"paper: optimal p decreases rapidly with density; achieved reachability ~flat (0.72 in the paper's calibration)",
		"paper: flooding (p=1) achieves ~0.55 of the optimum at rho=140")
	return f
}

// Fig5 reproduces Fig. 5: analytic latency to the reachability target.
func Fig5(s *Surface) *FigureResult {
	f := figure(s, "fig5",
		fmt.Sprintf("Latency of PB_CAM for %.0f%% reachability (analytic)", s.Pre.Constraints.Reach*100),
		"latency(phases)",
		func(p optimize.Point) float64 { return p.Latency },
		optimize.MinLatency)
	f.Notes = append(f.Notes,
		"paper: optimal probability curve identical to Fig. 4(b) (duality); ~5 phases at the optimum",
		"paper: flooding needs >8 phases at rho=140")
	return f
}

// Fig6 reproduces Fig. 6: analytic broadcast count (energy) to the
// reachability target.
func Fig6(s *Surface) *FigureResult {
	f := figure(s, "fig6",
		fmt.Sprintf("Energy (broadcast count) of PB_CAM for %.0f%% reachability (analytic)", s.Pre.Constraints.Reach*100),
		"broadcasts",
		func(p optimize.Point) float64 { return p.Broadcasts },
		optimize.MinBroadcasts)
	f.Notes = append(f.Notes,
		"paper: optimal p varies slowly within (0, 0.1] across the whole density range",
		"paper: optimal broadcast count stays within ~40; flooding costs ~N broadcasts")
	return f
}

// Fig7 reproduces Fig. 7: analytic reachability under the broadcast
// budget.
func Fig7(s *Surface) *FigureResult {
	f := figure(s, "fig7",
		fmt.Sprintf("Reachability of PB_CAM using <= %g broadcasts (analytic)", s.Pre.Constraints.Budget),
		"reachability",
		func(p optimize.Point) float64 { return p.ReachAtBudget },
		optimize.MaxReachAtBudget)
	f.Notes = append(f.Notes,
		"paper: optimal p close to 0 and near the Fig. 6(b) curve (duality); flooding reaches <20%")
	return f
}

// Fig8 reproduces Fig. 8, the simulated counterpart of Fig. 4.
func Fig8(s *Surface) *FigureResult {
	f := figure(s, "fig8", "Simulated reachability of PB_CAM in 5 time phases",
		"reachability",
		func(p optimize.Point) float64 { return p.ReachAtL },
		optimize.MaxReachAtLatency)
	f.Notes = append(f.Notes,
		"paper: matches Fig. 4 with achieved reachability ~0.63 across densities")
	return f
}

// Fig9 reproduces Fig. 9, the simulated counterpart of Fig. 5.
func Fig9(s *Surface) *FigureResult {
	f := figure(s, "fig9",
		fmt.Sprintf("Simulated latency of PB_CAM for %.0f%% reachability", s.Pre.Constraints.Reach*100),
		"latency(phases)",
		func(p optimize.Point) float64 { return p.Latency },
		optimize.MinLatency)
	f.Notes = append(f.Notes,
		"paper: optimal p close to Fig. 8(b); corresponding latency ~5 phases")
	return f
}

// Fig10 reproduces Fig. 10, the simulated counterpart of Fig. 6.
func Fig10(s *Surface) *FigureResult {
	f := figure(s, "fig10",
		fmt.Sprintf("Simulated energy cost of PB_CAM for %.0f%% reachability", s.Pre.Constraints.Reach*100),
		"broadcasts",
		func(p optimize.Point) float64 { return p.Broadcasts },
		optimize.MinBroadcasts)
	f.Notes = append(f.Notes,
		"paper: optimal p within 0.2 across densities; ~80 broadcasts at the optimum")
	return f
}

// Fig11 reproduces Fig. 11, the simulated counterpart of Fig. 7.
func Fig11(s *Surface) *FigureResult {
	f := figure(s, "fig11",
		fmt.Sprintf("Simulated reachability of PB_CAM using <= %g broadcasts", s.Pre.Constraints.Budget),
		"reachability",
		func(p optimize.Point) float64 { return p.ReachAtBudget },
		optimize.MaxReachAtBudget)
	f.Notes = append(f.Notes,
		"paper: optimal p almost within 0.2 across densities")
	return f
}

// Fig12 reproduces Fig. 12: the average broadcast success rate of
// simple flooding in CAM per density, compared against the optimal
// probability of Fig. 4(b). The paper observes their ratio is nearly
// constant (~11 in its calibration), suggesting density-free tuning.
func Fig12(s *Surface) (*FigureResult, error) {
	f := &FigureResult{ID: "fig12",
		Title:  "Flooding success rate vs optimal broadcast probability",
		Series: map[string][]float64{}}
	fig4 := Fig4(s)
	optP := fig4.Series["optimalP"]

	t := Table{Title: "success rate of flooding in CAM vs optimal p"}
	t.Header = []string{"rho", "success rate", "optimal p", "ratio"}
	var rates, ratios []float64
	for i, rho := range s.Pre.Rhos {
		cfg := s.Pre.AnalyticConfig(rho)
		cfg.Prob = 1
		cfg.TrackSuccessRate = true
		res, err := analytic.Run(cfg)
		if err != nil {
			return nil, err
		}
		rate := res.SuccessRate
		ratio := math.NaN()
		if rate > 0 {
			ratio = optP[i] / rate
		}
		rates = append(rates, rate)
		ratios = append(ratios, ratio)
		t.Add(fmt.Sprintf("%g", rho), fmtF(rate), fmtF(optP[i]), fmtF1(ratio))
	}
	f.Series["successRate"] = rates
	f.Series["optimalP"] = optP
	f.Series["ratio"] = ratios
	f.Tables = []Table{t}
	f.Notes = append(f.Notes,
		"paper: the ratio optimal-p/success-rate stays nearly constant across densities (~11)")
	return f, nil
}

// successStudy is fig12sim, the measured counterpart of Fig. 12: the
// simulated surface, for Fig. 8's optimal probability, plus one
// flooding cell per density, for the success rate it compares with.
type successStudy struct {
	pre   Preset
	cells []engine.Job
}

func newSuccessStudy(pre Preset) (study, error) {
	if err := checkRuns("fig12sim", pre.Runs); err != nil {
		return nil, err
	}
	st := successStudy{pre: pre}
	for _, rho := range pre.Rhos {
		cfg := pre.SimConfig(rho)
		cfg.Protocol = protocol.Flooding{}
		st.cells = append(st.cells, cellJob[schemeCell](keyedCell("flood-cell",
			fmt.Sprintf("flood(rho=%g)", rho), cfg, pre.Runs, pre.Constraints.Latency, nil)))
	}
	return st, nil
}

func (st successStudy) jobs() []engine.Job {
	return append(SurfaceJobs(st.pre, true, 0), st.cells...)
}

func (st successStudy) figure(results []engine.Result) (*FigureResult, error) {
	points := len(results) - len(st.cells)
	surf, err := assembleSurface(st.pre, true, results[:points])
	if err != nil {
		return nil, err
	}
	cells, err := resultValues[schemeCell](results[points:])
	if err != nil {
		return nil, err
	}
	f := &FigureResult{ID: "fig12sim",
		Title:  "Simulated flooding success rate vs optimal probability",
		Series: map[string][]float64{}}
	optP := Fig8(surf).Series["optimalP"]

	t := Table{Title: "simulated success rate of flooding vs optimal p"}
	t.Header = []string{"rho", "success rate", "optimal p", "ratio"}
	var rates, ratios []float64
	for i, rho := range st.pre.Rhos {
		rate := cells[i].SuccessRate
		ratio := math.NaN()
		if rate > 0 {
			ratio = optP[i] / rate
		}
		rates = append(rates, rate)
		ratios = append(ratios, ratio)
		t.Add(fmt.Sprintf("%g", rho), fmtF(rate), fmtF(optP[i]), fmtF1(ratio))
	}
	f.Series["successRate"] = rates
	f.Series["optimalP"] = optP
	f.Series["ratio"] = ratios
	f.Tables = []Table{t}
	return f, nil
}

// CFMBaseline reports the closed-form CFM flooding performance of §4
// next to the collision-aware analysis, quantifying how misleading CFM
// is at each density.
func CFMBaseline(ctx context.Context, eng *engine.Engine, pre Preset) (*FigureResult, error) {
	return runStudy(ctx, eng)(cfmStudy(pre))
}

// cfmStudy draws on the flooding column (p = 1) of the preset's
// analytic surface.
func cfmStudy(pre Preset) (study, error) {
	pre.Grid = []float64{1}
	return onSurfaces(false, func(surfs []*Surface) (*FigureResult, error) {
		f := &FigureResult{ID: "cfm",
			Title:  "CFM flooding closed forms vs CAM flooding analysis",
			Series: map[string][]float64{}}
		t := Table{Title: "flooding under CFM vs CAM"}
		t.Header = []string{"rho", "CFM reach@5", "CAM reach@5", "CFM broadcasts", "CAM broadcasts to 72%"}
		var gap []float64
		for i, rho := range pre.Rhos {
			cfm := analytic.CFMFlooding(pre.P, rho)
			cam := surfs[0].Points[i][0]
			t.Add(fmt.Sprintf("%g", rho),
				fmtF(cfm.ReachabilityAtPhase(pre.Constraints.Latency)),
				fmtF(cam.ReachAtL),
				fmtF1(cfm.TotalBroadcasts()),
				fmtF1(cam.Broadcasts))
			gap = append(gap, 1-cam.ReachAtL)
		}
		f.Series["collisionLoss"] = gap
		f.Tables = []Table{t}
		f.Notes = append(f.Notes,
			"CFM predicts full coverage in P phases at cost N; CAM exposes the collision collapse that motivates PB_CAM")
		return f, nil
	}, pre), nil
}

// CarrierSenseAblation compares the plain Assumption-6 collision model
// with the Appendix A carrier-sensing model on the reachability metric.
func CarrierSenseAblation(ctx context.Context, eng *engine.Engine, pre Preset) (*FigureResult, error) {
	return runStudy(ctx, eng)(carrierStudy(pre))
}

// carrierStudy draws on the preset's analytic surface and on its
// carrier-sensing copy.
func carrierStudy(pre Preset) (study, error) {
	cs := pre
	cs.CarrierSense = true
	return onSurfaces(false, func(surfs []*Surface) (*FigureResult, error) {
		f := &FigureResult{ID: "carrier",
			Title:  "Ablation: collision scope (receiver range vs carrier sensing)",
			Series: map[string][]float64{}}
		t := Table{Title: "optimal reachability in latency budget, by collision model"}
		t.Header = []string{"rho", "CAM optimal p", "CAM reach", "CAM+CS optimal p", "CAM+CS reach"}
		var plainP, csP []float64
		for i, rho := range pre.Rhos {
			po, _ := optimize.MaxReachAtLatency(surfs[0].Points[i])
			co, _ := optimize.MaxReachAtLatency(surfs[1].Points[i])
			t.Add(fmt.Sprintf("%g", rho),
				fmt.Sprintf("%.2f", po.P), fmtF(po.Value),
				fmt.Sprintf("%.2f", co.P), fmtF(co.Value))
			plainP = append(plainP, po.P)
			csP = append(csP, co.P)
		}
		f.Series["optimalP"] = plainP
		f.Series["optimalPCS"] = csP
		f.Tables = []Table{t}
		f.Notes = append(f.Notes,
			"Appendix A: widening the collision scope shifts the optimum to smaller p but preserves every qualitative trend")
		return f, nil
	}, pre, cs), nil
}

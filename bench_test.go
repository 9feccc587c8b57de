package sensornet_test

// One benchmark per table/figure of the paper's evaluation. Each bench
// regenerates its figure end-to-end on a reduced ("quick") grid so that
// `go test -bench=.` doubles as a smoke reproduction of the whole
// evaluation; run cmd/experiments for the full paper grids.

import (
	"context"
	"fmt"
	"testing"

	"sensornet/internal/buckets"
	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/optimize"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
)

func benchPresetAnalytic() experiments.Preset {
	pre := experiments.QuickAnalytic()
	pre.Rhos = []float64{20, 80, 140}
	pre.Grid = []float64{0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1}
	return pre
}

func benchPresetSim() experiments.Preset {
	pre := experiments.QuickSim()
	pre.Rhos = []float64{20, 80}
	pre.Grid = []float64{0.05, 0.2, 0.6, 1}
	pre.Runs = 3
	return pre
}

// benchEngine is a fresh uncached engine with one worker per CPU.
func benchEngine() *engine.Engine { return engine.New(engine.Config{}) }

// benchFigure renders one figure ID through RunFigures on a fresh
// engine per iteration, at the figure table's parameters over spec's
// presets.
func benchFigure(b *testing.B, spec experiments.FigureSpec, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigures(context.Background(), benchEngine(), spec, nil, id); err != nil {
			b.Fatal(err)
		}
	}
}

func analyticSurface(b *testing.B) *experiments.Surface {
	b.Helper()
	s, err := experiments.AnalyticSurfaceCtx(context.Background(), benchEngine(), benchPresetAnalytic())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func simSurface(b *testing.B) *experiments.Surface {
	b.Helper()
	s, err := experiments.SimSurfaceCtx(context.Background(), benchEngine(), benchPresetSim())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFig4Reachability regenerates Fig. 4: analytic reachability
// of PB_CAM within 5 phases and the optimal-probability curve.
func BenchmarkFig4Reachability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := analyticSurface(b)
		f := experiments.Fig4(s)
		if len(f.Series["optimalP"]) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig5Latency regenerates Fig. 5: analytic latency to the 72%
// reachability target.
func BenchmarkFig5Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := analyticSurface(b)
		f := experiments.Fig5(s)
		if len(f.Series["optimalP"]) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig6Energy regenerates Fig. 6: analytic broadcast count to
// the 72% reachability target.
func BenchmarkFig6Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := analyticSurface(b)
		f := experiments.Fig6(s)
		if len(f.Series["optimalP"]) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig7Budget regenerates Fig. 7: analytic reachability under a
// 35-broadcast budget.
func BenchmarkFig7Budget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := analyticSurface(b)
		f := experiments.Fig7(s)
		if len(f.Series["optimalP"]) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig8SimReachability regenerates Fig. 8: simulated
// reachability of PB_CAM in 5 phases.
func BenchmarkFig8SimReachability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := simSurface(b)
		f := experiments.Fig8(s)
		if len(f.Series["optimalP"]) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig9SimLatency regenerates Fig. 9: simulated latency to the
// 63% reachability target.
func BenchmarkFig9SimLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := simSurface(b)
		f := experiments.Fig9(s)
		if len(f.Series["optimalP"]) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig10SimEnergy regenerates Fig. 10: simulated broadcast
// count to the 63% reachability target.
func BenchmarkFig10SimEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := simSurface(b)
		f := experiments.Fig10(s)
		if len(f.Series["optimalP"]) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig11SimBudget regenerates Fig. 11: simulated reachability
// under an 80-broadcast budget.
func BenchmarkFig11SimBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := simSurface(b)
		f := experiments.Fig11(s)
		if len(f.Series["optimalP"]) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig12SuccessRate regenerates Fig. 12: the flooding success
// rate vs optimal probability correlation.
func BenchmarkFig12SuccessRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := analyticSurface(b)
		f, err := experiments.Fig12(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Series["ratio"]) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkCFMBaseline regenerates the §4 CFM flooding closed forms
// next to the CAM analysis.
func BenchmarkCFMBaseline(b *testing.B) {
	benchFigure(b, experiments.FigureSpec{Analytic: benchPresetAnalytic()}, "cfm")
}

// BenchmarkCarrierSenseAblation regenerates the Appendix A collision
// scope ablation.
func BenchmarkCarrierSenseAblation(b *testing.B) {
	pre := benchPresetAnalytic()
	pre.Rhos = []float64{80}
	benchFigure(b, experiments.FigureSpec{Analytic: pre}, "carrier")
}

// BenchmarkAblationMuMode compares the real-valued μ extension modes on
// one analytic sweep (the DESIGN.md "μ at non-integer K" decision).
func BenchmarkAblationMuMode(b *testing.B) {
	for _, mode := range []buckets.KMode{buckets.KLinear, buckets.KPoisson, buckets.KRound} {
		b.Run(mode.String(), func(b *testing.B) {
			pre := benchPresetAnalytic()
			for i := 0; i < b.N; i++ {
				for _, rho := range pre.Rhos {
					cfg := pre.AnalyticConfig(rho)
					cfg.KMode = mode
					if _, err := optimize.SweepAnalytic(cfg, pre.Grid, pre.Constraints); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationAsync compares the slot-aligned and asynchronous
// simulation engines at one operating point.
func BenchmarkAblationAsync(b *testing.B) {
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		b.Run(name, func(b *testing.B) {
			pre := benchPresetSim()
			pre.Async = async
			for i := 0; i < b.N; i++ {
				cfg := pre.SimConfig(80)
				cfg.Seed = int64(i)
				cfg.Protocol = protocol.Probability{P: 0.2}
				if _, err := sim.RunMany(context.Background(), cfg, 2, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorDenseFlooding is the raw simulator cost at the
// paper's largest configuration (rho=140, N=3500, flooding).
func BenchmarkSimulatorDenseFlooding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{P: 5, S: 3, Rho: 140, Seed: int64(i)}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostFunctions regenerates the empirical CFM cost-function
// table (the paper's §6 proposal realised by internal/reliable).
func BenchmarkCostFunctions(b *testing.B) {
	pre := benchPresetAnalytic()
	pre.Rhos = []float64{20, 60}
	benchFigure(b, experiments.FigureSpec{Analytic: pre}, "costfn")
}

// BenchmarkPercolation regenerates the grid+CFM percolation transition
// (the related-work cross-check with p_c = 0.593).
func BenchmarkPercolation(b *testing.B) {
	benchFigure(b, experiments.FigureSpec{}, "percolation")
}

// BenchmarkCollisionProfile regenerates the collision-rate explanation
// of the reachability bell curves.
func BenchmarkCollisionProfile(b *testing.B) {
	pre := benchPresetSim()
	pre.Grid = []float64{0.1, 1}
	pre.Runs = 2
	benchFigure(b, experiments.FigureSpec{Sim: pre}, "collisions")
}

// BenchmarkSlotSweep regenerates the backoff-window ablation.
func BenchmarkSlotSweep(b *testing.B) {
	benchFigure(b, experiments.FigureSpec{Analytic: benchPresetAnalytic()}, "slots")
}

// BenchmarkFieldScaling regenerates the O(P·r) latency scaling study.
func BenchmarkFieldScaling(b *testing.B) {
	benchFigure(b, experiments.FigureSpec{Analytic: benchPresetAnalytic()}, "field")
}

// BenchmarkSchemeComparison regenerates the all-schemes table.
func BenchmarkSchemeComparison(b *testing.B) {
	pre := benchPresetSim()
	pre.Runs = 2
	benchFigure(b, experiments.FigureSpec{Sim: pre}, "schemes")
}

// BenchmarkShootoutCampaign regenerates the cross-scheme shootout
// (flooding, tuned PB, counter and distance suppression) across the
// CFM, CAM and SINR channel columns at one density.
func BenchmarkShootoutCampaign(b *testing.B) {
	pre := benchPresetSim()
	pre.Runs = 2
	for i := 0; i < b.N; i++ {
		f, err := experiments.ShootoutCtx(context.Background(), benchEngine(), pre, []float64{40})
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Tables) == 0 {
			b.Fatal("empty shootout figure")
		}
	}
}

// BenchmarkHeterogeneity regenerates the hotspot-field comparison.
func BenchmarkHeterogeneity(b *testing.B) {
	pre := benchPresetSim()
	pre.Runs = 2
	benchFigure(b, experiments.FigureSpec{Sim: pre}, "hetero")
}

// BenchmarkRefinedCFM regenerates the density-priced CFM table.
func BenchmarkRefinedCFM(b *testing.B) {
	benchFigure(b, experiments.FigureSpec{Analytic: benchPresetAnalytic()}, "refinedcfm")
}

// BenchmarkEngineCampaign measures the engine-backed simulated
// campaign (the Figs. 8-11 surfaces plus the analytic figures) at
// several worker counts: workers=1 is the fully sequential baseline,
// and the higher counts track the engine's wall-clock speedup in the
// perf trajectory.
func BenchmarkEngineCampaign(b *testing.B) {
	spec := experiments.FigureSpec{Analytic: benchPresetAnalytic(), Sim: benchPresetSim()}
	spec.Sim.Runs = 4
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				figs, err := experiments.RunFigures(context.Background(),
					engine.New(engine.Config{Workers: workers}), spec, nil, campaignFigures...)
				if err != nil {
					b.Fatal(err)
				}
				if len(figs) != len(campaignFigures) {
					b.Fatalf("campaign produced %d figures", len(figs))
				}
			}
		})
	}
}

// campaignFigures is the campaign the engine benchmarks render: the
// paper's Figs. 4-12 plus fig12sim.
var campaignFigures = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12sim", "fig12"}

// BenchmarkEngineCachedCampaign measures the same campaign with a warm
// result cache: the cost of a no-change rerun, i.e. the engine's cache
// lookup plus figure assembly.
func BenchmarkEngineCachedCampaign(b *testing.B) {
	spec := experiments.FigureSpec{Analytic: benchPresetAnalytic(), Sim: benchPresetSim()}
	eng := engine.New(engine.Config{Cache: engine.NewCache("", experiments.CacheSalt)})
	run := func() {
		if _, err := experiments.RunFigures(context.Background(), eng, spec, nil, campaignFigures...); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkEngineOverhead measures the engine's per-job scheduling cost
// with no-op jobs: the fixed tax every sweep pays per grid row.
func BenchmarkEngineOverhead(b *testing.B) {
	eng := engine.New(engine.Config{Workers: 4})
	jobs := make([]engine.Job, 64)
	for i := range jobs {
		jobs[i] = engine.JobFunc{JobName: "noop",
			Fn: func(context.Context) (any, error) { return nil, nil }}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurfaceJobs times building the paper presets' surface job
// sets, names and fingerprints included: the fixed cost a serve
// table's load, a -merge and every shard pay before their first cache
// read.
func BenchmarkSurfaceJobs(b *testing.B) {
	for _, tc := range []struct {
		name      string
		pre       experiments.Preset
		simulated bool
	}{
		{"analytic", experiments.PaperAnalytic(), false},
		{"sim", experiments.PaperSim(), true},
	} {
		n := len(tc.pre.Rhos) * len(tc.pre.Grid)
		b.Run(fmt.Sprintf("%s/jobs=%d", tc.name, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if jobs := experiments.SurfaceJobs(tc.pre, tc.simulated, 0); len(jobs) != n {
					b.Fatalf("%d jobs, want %d", len(jobs), n)
				}
			}
		})
	}
}

// BenchmarkJointDesign regenerates the joint (p, s) optimisation.
func BenchmarkJointDesign(b *testing.B) {
	pre := benchPresetSim()
	pre.Runs = 2
	pre.Grid = []float64{0.05, 0.1, 0.2, 0.4, 0.8}
	benchFigure(b, experiments.FigureSpec{Sim: pre}, "joint")
}

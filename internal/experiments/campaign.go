package experiments

import (
	"context"
	"fmt"
	"io"

	"sensornet/internal/engine"
	"sensornet/internal/metrics"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
)

// Campaign runs a set of figures and renders them to one writer.
type Campaign struct {
	Analytic Preset
	Sim      Preset
	// SkipSim drops the simulated figures (8-11 and the simulated
	// success-rate table), for fast analytic-only reports.
	SkipSim bool
	// Extras enables the CFM baseline and carrier-sense ablation.
	Extras bool
	// Engine, when non-nil, executes the campaign's jobs; a default
	// engine (GOMAXPROCS workers, no cache) is used otherwise.
	Engine *engine.Engine
}

// campaignOrder is the canonical emission order: figures are rendered
// and returned in this sequence no matter how the engine schedules the
// underlying jobs, so campaign reports and CSV dumps are byte-identical
// for any worker count.
var campaignOrder = []string{
	"fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "fig11", "fig12sim",
	"fig12",
	"cfm", "carrier", "costfn", "slots", "field", "percolation",
}

// jobs is the campaign's keyed job set: every analytic surface point,
// every simulated surface row (unless SkipSim), and with Extras the
// percolation cells. workers bounds replication parallelism inside
// simulated rows; it never affects job identity.
func (c Campaign) jobs(workers int) []engine.Job {
	jobs := SurfaceJobs(c.Analytic, false, workers)
	if !c.SkipSim {
		jobs = append(jobs, SurfaceJobs(c.Sim, true, workers)...)
	}
	if c.Extras {
		jobs = append(jobs, cliPercolation().jobs()...)
	}
	return jobs
}

// Run executes the campaign on the engine: every keyed job (the
// surfaces behind Figs. 4-11 and the percolation cells) is submitted as
// one concurrent batch, then the figures that run their own model
// evaluations form a second batch, and the results are emitted to w in
// canonical order. A cache-only engine that misses keyed jobs fails in
// the first batch, naming every missing job. Cancelling ctx aborts
// outstanding jobs and returns an error wrapping the context's cause.
func (c Campaign) Run(ctx context.Context, w io.Writer) ([]*FigureResult, error) {
	eng := c.Engine
	if eng == nil {
		eng = defaultEngine(c.Analytic)
	}

	// Batch 1: one job per (density, probability) point for the
	// analytic engine, one per density row for the simulator (whose rows
	// share per-replication deployments internally and are too coarse to
	// split further without resampling them), one per probability for
	// the percolation lattice.
	results, err := eng.Run(ctx, c.jobs(eng.Workers()))
	if err != nil {
		return nil, err
	}
	nAnalytic := len(c.Analytic.Rhos) * len(c.Analytic.Grid)
	surf, err := assembleSurface(c.Analytic, false, results[:nAnalytic])
	if err != nil {
		return nil, err
	}
	results = results[nAnalytic:]
	var simSurf *Surface
	if !c.SkipSim {
		if simSurf, err = assembleSurface(c.Sim, true, results[:len(c.Sim.Rhos)]); err != nil {
			return nil, err
		}
		results = results[len(c.Sim.Rhos):]
	}

	figs := map[string]*FigureResult{
		"fig4": Fig4(surf), "fig5": Fig5(surf),
		"fig6": Fig6(surf), "fig7": Fig7(surf),
	}
	if simSurf != nil {
		figs["fig8"], figs["fig9"] = Fig8(simSurf), Fig9(simSurf)
		figs["fig10"], figs["fig11"] = Fig10(simSurf), Fig11(simSurf)
	}
	if c.Extras {
		if figs["percolation"], err = cliPercolation().figure(ctx, results); err != nil {
			return nil, err
		}
	}

	// Batch 2: figures that evaluate the models themselves.
	var figJobs []engine.Job
	addFig := func(id string, fn func(ctx context.Context) (*FigureResult, error)) {
		figJobs = append(figJobs, engine.JobFunc{
			JobName: id,
			Fn: func(ctx context.Context) (any, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				return fn(ctx)
			},
		})
	}
	if simSurf != nil {
		addFig("fig12sim", func(ctx context.Context) (*FigureResult, error) {
			return simSuccessRate(ctx, simSurf, eng.Workers())
		})
	}
	addFig("fig12", func(context.Context) (*FigureResult, error) { return Fig12(surf) })
	if c.Extras {
		addFig("cfm", func(context.Context) (*FigureResult, error) {
			return CFMBaseline(c.Analytic)
		})
		addFig("carrier", func(context.Context) (*FigureResult, error) {
			return CarrierSenseAblation(c.Analytic)
		})
		addFig("costfn", func(context.Context) (*FigureResult, error) {
			return CostFunctions(c.Analytic, 5)
		})
		addFig("slots", func(context.Context) (*FigureResult, error) {
			return SlotSweep(80, []int{1, 2, 3, 4, 6, 8},
				c.Analytic.Grid, c.Analytic.Constraints)
		})
		addFig("field", func(context.Context) (*FigureResult, error) {
			return FieldScaling(80, []int{3, 5, 8, 12}, 0.15,
				c.Analytic.Constraints)
		})
	}
	derived, err := eng.Run(ctx, figJobs)
	if err != nil {
		return nil, err
	}
	for _, r := range derived {
		f, ok := r.Value.(*FigureResult)
		if !ok {
			return nil, fmt.Errorf("experiments: job %q returned %T, want *FigureResult",
				r.Name, r.Value)
		}
		figs[r.Name] = f
	}

	var out []*FigureResult
	for _, id := range campaignOrder {
		f, ok := figs[id]
		if !ok {
			continue
		}
		out = append(out, f)
		if w != nil {
			if err := f.Render(w); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// simSuccessRate measures the flooding success rate in the simulator
// per density and compares it with the simulated optimal probability
// from the Fig. 8 surface: the measured counterpart of Fig. 12.
// workers bounds the replication parallelism.
func simSuccessRate(ctx context.Context, surf *Surface, workers int) (*FigureResult, error) {
	pre := surf.Pre
	f := &FigureResult{ID: "fig12sim",
		Title:  "Simulated flooding success rate vs optimal probability",
		Series: map[string][]float64{}}
	fig8 := Fig8(surf)
	optP := fig8.Series["optimalP"]

	t := Table{Title: "simulated success rate of flooding vs optimal p"}
	t.Header = []string{"rho", "success rate", "optimal p", "ratio"}
	var rates, ratios []float64
	for i, rho := range pre.Rhos {
		cfg := pre.SimConfig(rho)
		cfg.Protocol = protocol.Flooding{}
		agg, err := sim.RunMany(ctx, cfg, pre.Runs, workers)
		if err != nil {
			return nil, err
		}
		rate := metrics.Summarize(agg.SuccessRates()).Mean
		ratio := optP[i] / rate
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

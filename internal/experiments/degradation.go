package experiments

import (
	"context"
	"fmt"

	"sensornet/internal/engine"
	"sensornet/internal/faults"
	"sensornet/internal/optimize"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
	"sensornet/internal/viz"
)

// degCell is the cached aggregate of one degradation grid cell: the
// mean, over replications, of one scheme's behaviour at one
// (crash rate, loss rate) point.
type degCell struct {
	// Coverage is the mean final reachability; ReachAtL the mean
	// reachability within the latency constraint.
	Coverage float64 `json:"coverage"`
	ReachAtL float64 `json:"reachAtL"`
	// Settle is the mean settling phase: the last phase in which any
	// node first received the payload (0 when the broadcast never
	// leaves the source).
	Settle     float64 `json:"settle"`
	Broadcasts float64 `json:"broadcasts"`
	// Delivered / LostColl / LostFault decompose reception outcomes per
	// run: decoded, destroyed by CAM collisions, and lost to the fault
	// plan (down nodes, lossy links).
	Delivered float64 `json:"delivered"`
	LostColl  float64 `json:"lostColl"`
	LostFault float64 `json:"lostFault"`
	// Crashed and Depleted are the mean realised node-fault counts.
	Crashed  float64 `json:"crashed"`
	Depleted float64 `json:"depleted"`
}

func (c *degCell) add(res *sim.Result, levels optimize.Constraints) {
	c.Coverage += res.Timeline.FinalReachability()
	c.ReachAtL += res.Timeline.ReachabilityAtPhase(levels.Latency)
	c.Settle += settlePhase(res.PhaseNew)
	c.Broadcasts += float64(res.Broadcasts)
	c.Delivered += float64(res.Delivered)
	c.LostColl += float64(res.LostToCollision)
	c.LostFault += float64(res.LostToFault)
	c.Crashed += float64(res.Crashed)
	c.Depleted += float64(res.Depleted)
}

func (c *degCell) div(n float64) {
	c.Coverage /= n
	c.ReachAtL /= n
	c.Settle /= n
	c.Broadcasts /= n
	c.Delivered /= n
	c.LostColl /= n
	c.LostFault /= n
	c.Crashed /= n
	c.Depleted /= n
}

// Degradation measures how flooding and the law-tuned PB_CAM degrade
// as node crashes and link loss intrude on the paper's collision-only
// failure model: coverage, latency-constrained reach, and settling time
// over a (crash rate × loss rate) grid at one density, averaged over
// the preset's replications with common random numbers. One cached
// engine job per (scheme, crash, loss) cell, so a killed study resumes
// from the cache. Crash phases are uniform over the horizon; when the
// preset leaves MaxPhases unset the study caps it near the latency
// budget so node death lands inside the broadcast window instead of
// long after it settles.
func Degradation(ctx context.Context, eng *engine.Engine, pre Preset, rho float64,
	crashRates, lossRates []float64) (*FigureResult, error) {
	return runStudy(ctx, eng)(degradationStudy(pre, rho, crashRates, lossRates))
}

// degradationStudy is one cell per (scheme, crash, loss), scheme-major,
// with the default rate grids for empty lists. Every cell shares the
// replications' deployments and — because the fault plan's streams
// derive from the run seed, not the rates — coupled fault draws: at a
// fixed replication the crashed set at a low rate is a subset of the
// crashed set at a high one. The density must be positive and finite,
// and every (crash, loss) pair must pass faults.Config.Validate, so a
// bad density or rate fails before any job is built.
func degradationStudy(pre Preset, rho float64, crashRates, lossRates []float64) (study, error) {
	if err := checkRuns("degradation", pre.Runs); err != nil {
		return nil, err
	}
	if err := checkDensity("degradation", rho); err != nil {
		return nil, err
	}
	if len(crashRates) == 0 {
		crashRates = []float64{0, 0.1, 0.2, 0.4}
	}
	if len(lossRates) == 0 {
		lossRates = []float64{0, 0.1, 0.3}
	}
	for _, crash := range crashRates {
		for _, loss := range lossRates {
			if err := (faults.Config{CrashRate: crash, LossRate: loss}).Validate(); err != nil {
				return nil, fmt.Errorf("experiments: degradation: %w", err)
			}
		}
	}
	pre = capHorizon(pre)
	law, err := calibrateLaw(pre)
	if err != nil {
		return nil, err
	}
	p := law.P(rho)
	schemes := []struct {
		name  string
		proto protocol.Protocol
	}{
		{"flooding", protocol.Flooding{}},
		{fmt.Sprintf("PB(p=%.2f)", p), protocol.Probability{P: p}},
	}
	pool := newPool()
	var cells []engine.Job
	for _, s := range schemes {
		for _, crash := range crashRates {
			for _, loss := range lossRates {
				cfg := pre.SimConfig(rho)
				cfg.Protocol = s.proto
				cfg.Faults = &faults.Config{CrashRate: crash, LossRate: loss}
				cells = append(cells, cellJob[degCell](cell{
					name: fmt.Sprintf("deg(%s,crash=%g,loss=%g)", s.name, crash, loss),
					key: cellKey("deg-cell", cfg, cfg.Model, s.name, crash, loss,
						pre.Constraints.Latency, pre.Runs),
					cfg: cfg, runs: pre.Runs, levels: pre.Constraints, pool: pool,
				}))
			}
		}
	}
	return cellStudy[degCell]{cells, func(aggs []degCell) (*FigureResult, error) {
		f := &FigureResult{ID: "degradation",
			Title:  fmt.Sprintf("Graceful degradation under node crashes and link loss (rho = %g)", rho),
			Series: map[string][]float64{"crashRates": crashRates, "lossRates": lossRates}}
		chart := viz.NewChart("coverage vs crash rate")
		chart.XLabel, chart.YLabel = "crash rate", "coverage"
		for _, s := range schemes {
			t := Table{Title: fmt.Sprintf("%s (mean of %d runs, horizon %d phases)",
				s.name, pre.Runs, pre.MaxPhases)}
			t.Header = []string{"crash", "loss", "coverage", "reach@L", "settle",
				"broadcasts", "delivered", "lost/coll", "lost/fault", "crashed"}
			coverage := make([]float64, 0, len(crashRates)*len(lossRates))
			for _, crash := range crashRates {
				for _, loss := range lossRates {
					c := aggs[0]
					aggs = aggs[1:]
					t.Add(fmt.Sprintf("%.2f", crash), fmt.Sprintf("%.2f", loss),
						fmtF(c.Coverage), fmtF(c.ReachAtL), fmtF1(c.Settle),
						fmtF1(c.Broadcasts), fmtF1(c.Delivered),
						fmtF1(c.LostColl), fmtF1(c.LostFault), fmtF1(c.Crashed))
					coverage = append(coverage, c.Coverage)
				}
			}
			f.Series["coverage:"+s.name] = coverage
			// One chart series per scheme at the clean-link column.
			clean := make([]float64, len(crashRates))
			for ci := range crashRates {
				clean[ci] = coverage[ci*len(lossRates)]
			}
			_ = chart.Add(s.name, crashRates, clean)
			f.Tables = append(f.Tables, t)
		}
		f.Charts = []string{chart.Render()}
		f.Notes = append(f.Notes,
			fmt.Sprintf("PB probability comes from the calibrated law p* = %.1f/rho", law.C),
			"replications share seeds across cells (common random numbers) and fault draws are coupled across rates, so the grid is comparable cell to cell",
			"coverage is cumulative reach: crashed nodes keep their delivered payload, but relay nothing after death")
		return f, nil
	}}, nil
}

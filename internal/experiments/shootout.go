package experiments

import (
	"context"
	"fmt"

	"sensornet/internal/analytic"
	"sensornet/internal/channel"
	"sensornet/internal/deploy"
	"sensornet/internal/engine"
	"sensornet/internal/optimize"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
	"sensornet/internal/viz"
)

// schemeCell is the cached aggregate of one scheme's cell: the mean,
// over replications, of its run outcomes. The shootout, the scheme
// comparison, the heterogeneity, joint-design and percolation studies
// all average these.
type schemeCell struct {
	Coverage   float64 `json:"coverage"`
	ReachAtL   float64 `json:"reachAtL"`
	Settle     float64 `json:"settle"`
	Broadcasts float64 `json:"broadcasts"`
	Delivered  float64 `json:"delivered"`
	// LostColl counts receptions destroyed by collisions (zero under
	// CFM, SINR outages under the physical model).
	LostColl    float64 `json:"lostColl"`
	SuccessRate float64 `json:"successRate"`
}

func (c *schemeCell) add(res *sim.Result, levels optimize.Constraints) {
	c.Coverage += res.Timeline.FinalReachability()
	c.ReachAtL += res.Timeline.ReachabilityAtPhase(levels.Latency)
	c.Settle += settlePhase(res.PhaseNew)
	c.Broadcasts += float64(res.Broadcasts)
	c.Delivered += float64(res.Delivered)
	c.LostColl += float64(res.LostToCollision)
	c.SuccessRate += res.SuccessRate
}

func (c *schemeCell) div(n float64) {
	c.Coverage /= n
	c.ReachAtL /= n
	c.Settle /= n
	c.Broadcasts /= n
	c.Delivered /= n
	c.LostColl /= n
	c.SuccessRate /= n
}

// shootScheme is one compared suppression scheme. The key is the
// stable identity that enters job fingerprints and the serving API;
// display and proto may depend on the density (the law-tuned PB does).
type shootScheme struct {
	key     string
	display func(rho float64) string
	proto   func(rho float64) protocol.Protocol
}

// ShootoutModels returns the channel models the shootout crosses, in
// table order.
func ShootoutModels() []channel.Model {
	return []channel.Model{channel.CFM, channel.CAM, channel.ModelSINR}
}

// DefaultShootoutRhos is the density pair the campaign sweeps when the
// caller passes none: a sparse and a dense field.
func DefaultShootoutRhos() []float64 { return []float64{40, 100} }

// shootStudy is the normalised parameter set of one shootout: the
// effective preset, the densities, the channel models crossed, the
// SINR parameters, and the schemes compared, plus the cell jobs built
// from them on one deployment pool. Extracting it keeps the sharded
// job builder (ShootoutJobs) and the figure assembly (ShootoutCtx)
// agreed on job identity, so a shard process and the merge process
// address the same cache entries.
type shootStudy struct {
	pre     Preset
	rhos    []float64
	models  []channel.Model
	sinr    channel.SINRParams
	schemes []shootScheme
	law     analytic.OptimalProbabilityLaw
	pool    *sim.Pool
	cells   []engine.Job
}

func newShootStudy(pre Preset, rhos []float64) (*shootStudy, error) {
	if err := checkRuns("shootout", pre.Runs); err != nil {
		return nil, err
	}
	if len(rhos) == 0 {
		rhos = DefaultShootoutRhos()
	}
	for _, rho := range rhos {
		if err := checkDensity("shootout", rho); err != nil {
			return nil, err
		}
	}
	pre = capHorizon(pre)
	law, err := calibrateLaw(pre)
	if err != nil {
		return nil, err
	}
	st := &shootStudy{
		pre:    pre,
		rhos:   rhos,
		models: ShootoutModels(),
		sinr:   channel.DefaultSINRParams(),
		schemes: []shootScheme{
			{"flooding",
				func(float64) string { return "flooding" },
				func(float64) protocol.Protocol { return protocol.Flooding{} }},
			{"pb",
				func(rho float64) string { return fmt.Sprintf("PB(p=%.2f)", law.P(rho)) },
				func(rho float64) protocol.Protocol { return protocol.Probability{P: law.P(rho)} }},
			{"counter",
				func(float64) string { return "counter(c=3)" },
				func(float64) protocol.Protocol { return protocol.Counter{Threshold: 3} }},
			{"distance",
				func(float64) string { return "distance(d=0.4)" },
				func(float64) protocol.Protocol { return protocol.Distance{MinDist: 0.4} }},
		},
		law:  law,
		pool: newPool(),
	}
	for _, model := range st.models {
		st.addCells(model)
	}
	return st, nil
}

// addCells appends the cached jobs averaging each scheme's metrics over
// the preset's replications under one channel model, density by
// density. Every scheme and every model at a density shares the
// replications' deployments (common random numbers). A cell's key is
// its (model, ρ) prefix, its scheme key and its model's suffix, and its
// name spells the same three.
func (st *shootStudy) addCells(model channel.Model) {
	suffix := []any{st.sinr.Alpha, st.sinr.Beta, st.sinr.N0,
		st.pre.Constraints.Latency, st.pre.Runs}
	if model == channel.ModelSINR {
		// Only SINR reads the gain tables, so only its cells are keyed
		// by how the gains are computed.
		suffix = append(suffix, deploy.GainFormula)
	}
	keySuffix := engine.Fingerprint(suffix...)
	for _, rho := range st.rhos {
		cfg := st.pre.SimConfig(rho)
		cfg.Model = model
		if model == channel.ModelSINR {
			cfg.SINR = st.sinr
		}
		prefix := cellKey("shoot-cell", cfg, int(model))
		rhoName := ",rho=" + formatG(rho) + ")"
		for _, s := range st.schemes {
			cfg.Protocol = s.proto(rho)
			st.cells = append(st.cells, cellJob[schemeCell](cell{
				name: "shoot(" + model.String() + "," + s.key + rhoName,
				key:  rowKey(prefix, s.key, keySuffix),
				cfg:  cfg, runs: st.pre.Runs, levels: st.pre.Constraints,
				pool: st.pool,
			}))
		}
	}
}

// jobs returns the study's cell-job batch, model-major in
// (models, rhos, schemes) order — the positional contract data and the
// figure read results under.
func (st *shootStudy) jobs() []engine.Job { return st.cells }

// ShootoutJobs returns the cacheable job set behind the shootout — the
// unit the shard layer and the coordinator/worker backend distribute.
func ShootoutJobs(pre Preset, rhos []float64) ([]engine.Job, error) {
	st, err := newShootStudy(pre, rhos)
	if err != nil {
		return nil, err
	}
	return st.jobs(), nil
}

// ShootoutScheme is one scheme's aggregate at a (model, density) cell,
// in the serving shape.
type ShootoutScheme struct {
	// Scheme is the stable key ("flooding", "pb", "counter",
	// "distance"); Display the human label with resolved parameters.
	Scheme  string `json:"scheme"`
	Display string `json:"display"`
	schemeCell
}

// ShootoutRow compares every scheme at one (channel model, density)
// cell.
type ShootoutRow struct {
	Model string  `json:"model"`
	Rho   float64 `json:"rho"`
	// Schemes is in campaign scheme order.
	Schemes []ShootoutScheme `json:"schemes"`
	// Best maps each scheme-selector objective to the winning scheme
	// key (first-wins on ties, in scheme order).
	Best map[string]string `json:"best"`
}

// ShootoutData is the campaign's structured result: the cross of
// suppression schemes and channel models the serving mode publishes.
type ShootoutData struct {
	Models []string      `json:"models"`
	Rhos   []float64     `json:"rhos"`
	Rows   []ShootoutRow `json:"rows"`
}

// ShootoutDataCtx runs the scheme-model cross and returns the
// structured rows the serving mode publishes. One cached engine job
// per (model, density, scheme) cell, so a killed campaign resumes from
// the cache and a cache-only engine serves it without recomputation.
func ShootoutDataCtx(ctx context.Context, eng *engine.Engine, pre Preset,
	rhos []float64) (*ShootoutData, error) {

	st, err := newShootStudy(pre, rhos)
	if err != nil {
		return nil, err
	}
	results, err := runJobs(ctx, eng, st.jobs())
	if err != nil {
		return nil, err
	}
	return st.data(results)
}

// data arranges the cells' results into rows: one per (model,
// density), model-major, each comparing every scheme.
func (st *shootStudy) data(results []engine.Result) (*ShootoutData, error) {
	cells, err := resultValues[schemeCell](results)
	if err != nil {
		return nil, err
	}
	data := &ShootoutData{Rhos: st.rhos}
	for _, m := range st.models {
		data.Models = append(data.Models, m.String())
	}
	selectors := optimize.SchemeSelectors()
	for _, model := range st.models {
		for _, rho := range st.rhos {
			row := ShootoutRow{Model: model.String(), Rho: rho,
				Best: make(map[string]string, len(selectors))}
			ms := make([]optimize.SchemeMetrics, 0, len(st.schemes))
			for _, s := range st.schemes {
				c := cells[0]
				cells = cells[1:]
				row.Schemes = append(row.Schemes, ShootoutScheme{
					Scheme: s.key, Display: s.display(rho), schemeCell: c})
				ms = append(ms, optimize.SchemeMetrics{
					Coverage: c.Coverage, ReachAtL: c.ReachAtL,
					Broadcasts: c.Broadcasts, SuccessRate: c.SuccessRate})
			}
			for _, sel := range selectors {
				if best := optimize.BestScheme(sel, ms); best >= 0 {
					row.Best[sel.Name] = st.schemes[best].key
				}
			}
			data.Rows = append(data.Rows, row)
		}
	}
	return data, nil
}

// ShootoutCtx renders the cross-scheme shootout: flooding, the
// law-tuned PB, counter-based, and distance-based suppression crossed
// over the CFM, CAM, and SINR channel models at each swept density.
// The CFM column shows each scheme's collision-free ceiling; CAM
// charges slot collisions; SINR replaces the binary collision rule
// with cumulative-interference decoding, so dense-field flooding
// degrades smoothly instead of cliff-dropping. When the preset leaves
// MaxPhases unset the study caps it near the latency budget, like the
// degradation study. It is RunFigures on the figure table's shootout
// row, with pre as the simulated preset.
func ShootoutCtx(ctx context.Context, eng *engine.Engine, pre Preset,
	rhos []float64) (*FigureResult, error) {
	figs, err := RunFigures(ctx, eng, FigureSpec{Sim: pre, ShootRhos: rhos}, nil, "shootout")
	if err != nil {
		return nil, err
	}
	return figs[0], nil
}

func (st *shootStudy) figure(results []engine.Result) (*FigureResult, error) {
	data, err := st.data(results)
	if err != nil {
		return nil, err
	}
	f := &FigureResult{ID: "shootout",
		Title:  "Suppression-scheme shootout across channel models",
		Series: map[string][]float64{"rhos": st.rhos}}
	chart := viz.NewChart("coverage vs density (SINR column)")
	chart.XLabel, chart.YLabel = "rho", "coverage"
	rows := data.Rows
	for _, model := range data.Models {
		t := Table{Title: fmt.Sprintf("%s (mean of %d runs, horizon %d phases)",
			model, st.pre.Runs, st.pre.MaxPhases)}
		t.Header = []string{"rho", "scheme", "coverage", "reach@L", "settle",
			"broadcasts", "delivered", "lost/coll", "success"}
		for _, row := range rows[:len(st.rhos)] {
			for _, s := range row.Schemes {
				t.Add(fmt.Sprintf("%g", row.Rho), s.Display,
					fmtF(s.Coverage), fmtF(s.ReachAtL), fmtF1(s.Settle),
					fmtF1(s.Broadcasts), fmtF1(s.Delivered),
					fmtF1(s.LostColl), fmtF(s.SuccessRate))
			}
		}
		rows = rows[len(st.rhos):]
		f.Tables = append(f.Tables, t)
	}
	// Per-(model, scheme) series, plus one chart tracking the physical
	// model's coverage ranking over density.
	for si, s := range st.schemes {
		for mi, model := range data.Models {
			coverage := make([]float64, 0, len(st.rhos))
			for _, row := range data.Rows[mi*len(st.rhos) : (mi+1)*len(st.rhos)] {
				coverage = append(coverage, row.Schemes[si].Coverage)
			}
			f.Series["coverage:"+model+":"+s.key] = coverage
			if model == channel.ModelSINR.String() {
				_ = chart.Add(s.key, st.rhos, coverage)
			}
		}
	}
	f.Charts = []string{chart.Render()}
	f.Notes = append(f.Notes,
		fmt.Sprintf("PB probability comes from the calibrated law p* = %.1f/rho", st.law.C),
		fmt.Sprintf("SINR decodes at alpha=%g, beta=%g, N0=%g with interference truncated at the 2R sensing range",
			st.sinr.Alpha, st.sinr.Beta, st.sinr.N0),
		// sim.Pool enforces this note: every pooled run replays its
		// placement and fails unless it matches the shared build bit
		// for bit.
		"replications share seeds across cells (common random numbers), and deployments consume the stream before any model- or scheme-dependent draw, so every cell at a density sees the same fields")
	return f, nil
}

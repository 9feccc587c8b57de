// Package experiments reproduces every figure of the paper's evaluation
// (§4.2.3–§4.2.6 analytic, §5 simulated, Fig. 12's success-rate
// correlation) as runnable experiments that emit the same rows and
// series the paper plots.
package experiments

import (
	"context"

	"sensornet/internal/analytic"
	"sensornet/internal/channel"
	"sensornet/internal/engine"
	"sensornet/internal/mathx"
	"sensornet/internal/optimize"
	"sensornet/internal/sim"
)

// Preset bundles the shared parameters of an experiment campaign.
type Preset struct {
	// P is the field radius in transmission radii; S the slots per
	// phase.
	P, S int
	// Rhos are the densities swept (average neighbours per node).
	Rhos []float64
	// Grid is the broadcast-probability grid.
	Grid []float64
	// Constraints fixes the latency/reachability/budget levels.
	Constraints optimize.Constraints
	// Runs is the number of random simulation runs per grid point.
	Runs int
	// Seed is the base seed for simulated campaigns.
	Seed int64
	// MaxPhases caps execution length.
	MaxPhases int
	// CarrierSense switches both engines to the Appendix A model.
	CarrierSense bool
	// Async gives simulated nodes random phase offsets.
	Async bool
}

// PaperAnalytic is the configuration of §4.2.3: P = 5, s = 3,
// ρ ∈ {20..140}, p ∈ {0.01..1} step 0.01, latency budget 5 phases,
// reachability target 72%, broadcast budget 35.
func PaperAnalytic() Preset {
	return Preset{
		P: 5, S: 3,
		Rhos:        mathx.Range(20, 140, 20),
		Grid:        mathx.Range(0.01, 1, 0.01),
		Constraints: optimize.Constraints{Latency: 5, Reach: 0.72, Budget: 35},
	}
}

// PaperSim is the configuration of §5: the probability grid coarsens to
// step 0.05, 30 random runs per point, reachability target 63%, budget
// 80 broadcasts.
func PaperSim() Preset {
	p := PaperAnalytic()
	p.Grid = mathx.Range(0.05, 1, 0.05)
	p.Constraints = optimize.Constraints{Latency: 5, Reach: 0.63, Budget: 80}
	p.Runs = 30
	p.Seed = 1
	return p
}

// QuickAnalytic is a coarsened analytic preset for tests and benches.
func QuickAnalytic() Preset {
	p := PaperAnalytic()
	p.Rhos = []float64{20, 60, 100, 140}
	p.Grid = mathx.Range(0.02, 1, 0.02)
	return p
}

// QuickSim is a coarsened simulation preset for tests and benches.
func QuickSim() Preset {
	p := PaperSim()
	p.Rhos = []float64{20, 60, 100}
	p.Grid = mathx.Range(0.1, 1, 0.1)
	p.Runs = 4
	return p
}

func (pre Preset) AnalyticConfig(rho float64) analytic.Config {
	return analytic.Config{
		P: pre.P, S: pre.S, Rho: rho,
		CarrierSense: pre.CarrierSense,
		MaxPhases:    pre.MaxPhases,
	}
}

func (pre Preset) SimConfig(rho float64) sim.Config {
	model := channel.CAM
	if pre.CarrierSense {
		model = channel.CAMCarrierSense
	}
	return sim.Config{
		P: pre.P, S: pre.S, Rho: rho,
		Model:     model,
		Seed:      pre.Seed,
		Async:     pre.Async,
		MaxPhases: pre.MaxPhases,
	}
}

// Surface is a full (density × probability) metric sweep from one
// engine: the data behind every figure.
type Surface struct {
	Pre Preset
	// Points[i][j] holds the metrics at (Rhos[i], Grid[j]).
	Points [][]optimize.Point
}

// AnalyticSurfaceCtx sweeps the analytical model over the preset,
// submitting one cached job per (density, probability) point to eng.
// Points come back row-major in (Rhos, Grid) order regardless of the
// engine's worker count.
func AnalyticSurfaceCtx(ctx context.Context, eng *engine.Engine, pre Preset) (*Surface, error) {
	return surface(ctx, eng, pre, false)
}

// SimSurfaceCtx sweeps the simulator over the preset, submitting one
// cached cell per (density, probability) point to eng. For a fixed
// preset seed the surface is identical for any worker count.
func SimSurfaceCtx(ctx context.Context, eng *engine.Engine, pre Preset) (*Surface, error) {
	return surface(ctx, eng, pre, true)
}

func surface(ctx context.Context, eng *engine.Engine, pre Preset, simulated bool) (*Surface, error) {
	results, err := runJobs(ctx, eng, SurfaceJobs(pre, simulated, 0))
	if err != nil {
		return nil, err
	}
	return assembleSurface(pre, simulated, results)
}

// surfaceStudy draws one figure from one or more surfaces of one kind:
// its jobs are each surface's point jobs in turn, and its figure
// assembles every surface from its share of the results.
type surfaceStudy struct {
	pres      []Preset
	simulated bool
	points    []engine.Job
	draw      func([]*Surface) (*FigureResult, error)
}

// onSurfaces is the study drawing on the surfaces of pres.
func onSurfaces(simulated bool, draw func([]*Surface) (*FigureResult, error), pres ...Preset) surfaceStudy {
	st := surfaceStudy{pres: pres, simulated: simulated, draw: draw}
	for _, pre := range pres {
		st.points = append(st.points, SurfaceJobs(pre, simulated, 0)...)
	}
	return st
}

func (st surfaceStudy) jobs() []engine.Job { return st.points }

func (st surfaceStudy) figure(results []engine.Result) (*FigureResult, error) {
	surfs := make([]*Surface, len(st.pres))
	for i, pre := range st.pres {
		n := min(len(results), len(pre.Rhos)*len(pre.Grid))
		surf, err := assembleSurface(pre, st.simulated, results[:n])
		if err != nil {
			return nil, err
		}
		surfs[i], results = surf, results[n:]
	}
	return st.draw(surfs)
}

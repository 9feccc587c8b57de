package experiments

import (
	"context"
	"fmt"
	"io"

	"sensornet/internal/engine"
)

// FigureSpec is everything besides the figure ID that fixes a figure's
// job set and rendering. Both sides of a sharded or distributed run
// must build it from the same flags, because the job fingerprints are
// the protocol's only job identity.
type FigureSpec struct {
	// Analytic and Sim are the presets of the analytic and simulated
	// figures.
	Analytic, Sim Preset
	// DegRho, CrashRates and LossRates parameterise the degradation
	// study; empty rate lists pick its default grids.
	DegRho                float64
	CrashRates, LossRates []float64
	// ShootRhos are the shootout densities (empty: DefaultShootoutRhos).
	ShootRhos []float64
	// SkipSim drops the simulated surface and its figures from "all".
	SkipSim bool
	// Workers bounds replication parallelism inside simulated surface
	// rows and fig12sim's flooding runs; it never affects job identity.
	Workers int
}

// campaign is the full campaign "all" runs.
func (s FigureSpec) campaign(eng *engine.Engine) Campaign {
	return Campaign{Analytic: s.Analytic, Sim: s.Sim, SkipSim: s.SkipSim,
		Extras: true, Engine: eng}
}

// figureRow is one entry of the figure table. A figure with a cacheable
// job set is a study (its jobs, and the figure their results assemble
// into); an analytic-only figure evaluates the model directly.
type figureRow struct {
	id       string
	study    func(FigureSpec) (study, error)
	analytic func(FigureSpec) (*FigureResult, error)
}

// figureTable lists every figure besides "all", with the per-figure
// parameters the CLI renders it at.
var figureTable = []figureRow{
	{id: "fig4", study: onSurface(false, plain(Fig4))},
	{id: "fig5", study: onSurface(false, plain(Fig5))},
	{id: "fig6", study: onSurface(false, plain(Fig6))},
	{id: "fig7", study: onSurface(false, plain(Fig7))},
	{id: "fig8", study: onSurface(true, plain(Fig8))},
	{id: "fig9", study: onSurface(true, plain(Fig9))},
	{id: "fig10", study: onSurface(true, plain(Fig10))},
	{id: "fig11", study: onSurface(true, plain(Fig11))},
	{id: "fig12", study: onSurface(false, func(_ context.Context, s *Surface, _ int) (*FigureResult, error) {
		return Fig12(s)
	})},
	{id: "fig12sim", study: onSurface(true, simSuccessRate)},
	{id: "cfm", analytic: func(s FigureSpec) (*FigureResult, error) { return CFMBaseline(s.Analytic) }},
	{id: "carrier", analytic: func(s FigureSpec) (*FigureResult, error) { return CarrierSenseAblation(s.Analytic) }},
	{id: "costfn", analytic: func(s FigureSpec) (*FigureResult, error) { return CostFunctions(s.Analytic, 5) }},
	{id: "percolation", study: func(FigureSpec) (study, error) { return cliPercolation(), nil }},
	{id: "collisions", study: func(s FigureSpec) (study, error) { return collisionStudy(s.Sim, 100) }},
	{id: "slots", analytic: func(s FigureSpec) (*FigureResult, error) {
		return SlotSweep(80, []int{1, 2, 3, 4, 6, 8, 12}, s.Analytic.Grid, s.Analytic.Constraints)
	}},
	{id: "field", analytic: func(s FigureSpec) (*FigureResult, error) {
		return FieldScaling(80, []int{3, 5, 8, 12, 16}, 0.15, s.Analytic.Constraints)
	}},
	{id: "schemes", study: func(s FigureSpec) (study, error) { return schemeStudy(s.Sim, []float64{40, 100}) }},
	{id: "hetero", study: func(s FigureSpec) (study, error) { return heteroStudy(s.Sim, 80) }},
	{id: "refinedcfm", analytic: func(s FigureSpec) (*FigureResult, error) { return RefinedCFM(s.Analytic, 5) }},
	{id: "joint", study: func(s FigureSpec) (study, error) {
		return jointStudy(s.Sim, 100, 15, []int{1, 2, 3, 4, 6, 9})
	}},
	{id: "mumode", analytic: func(s FigureSpec) (*FigureResult, error) { return MuModeAblation(s.Analytic) }},
	{id: "degradation", study: func(s FigureSpec) (study, error) {
		return degradationStudy(s.Sim, s.DegRho, s.CrashRates, s.LossRates)
	}},
	{id: "shootout", study: func(s FigureSpec) (study, error) { return newShootStudy(s.Sim, s.ShootRhos) }},
}

// onSurface draws a figure from the spec's analytic or simulated
// surface.
func onSurface(simulated bool, draw surfaceDraw) func(FigureSpec) (study, error) {
	return func(s FigureSpec) (study, error) {
		pre := s.Analytic
		if simulated {
			pre = s.Sim
		}
		return surfaceStudy{pre: pre, simulated: simulated, workers: s.Workers, draw: draw}, nil
	}
}

// plain lifts a paper figure that cannot fail.
func plain(fig func(*Surface) *FigureResult) surfaceDraw {
	return func(_ context.Context, s *Surface, _ int) (*FigureResult, error) { return fig(s), nil }
}

// FigureIDs lists every figure ID FigureJobs and RunFigure accept, in
// table order, ending with "all".
func FigureIDs() []string {
	ids := make([]string, 0, len(figureTable)+1)
	for _, row := range figureTable {
		ids = append(ids, row.id)
	}
	return append(ids, "all")
}

func lookupFigure(id string) (figureRow, error) {
	for _, row := range figureTable {
		if row.id == id {
			return row, nil
		}
	}
	return figureRow{}, fmt.Errorf("unknown figure %q", id)
}

// FigureJobs builds the cacheable job set behind the selected figure —
// the unit of work the -shard split, the -merge assembly, and the
// coordinator/worker backend all agree on. For "all" it is the
// campaign's first batch: both surfaces and the percolation cells.
func FigureJobs(id string, spec FigureSpec) ([]engine.Job, error) {
	if id == "all" {
		return spec.campaign(nil).jobs(spec.Workers), nil
	}
	row, err := lookupFigure(id)
	if err != nil {
		return nil, err
	}
	if row.study == nil {
		return nil, fmt.Errorf("figure %q has no cacheable job set to distribute", id)
	}
	st, err := row.study(spec)
	if err != nil {
		return nil, err
	}
	return st.jobs(), nil
}

// RunFigure renders the selected figure ("all" for the full campaign)
// to w and returns the rendered figures. A figure's job set runs on
// eng, so a cache-only engine assembles it from a sharded or
// distributed run's results without recomputing them.
func RunFigure(ctx context.Context, eng *engine.Engine, id string, spec FigureSpec,
	w io.Writer) ([]*FigureResult, error) {
	if id == "all" {
		return spec.campaign(eng).Run(ctx, w)
	}
	row, err := lookupFigure(id)
	if err != nil {
		return nil, err
	}
	var f *FigureResult
	if row.study != nil {
		f, err = runStudy(ctx, eng)(row.study(spec))
	} else {
		f, err = row.analytic(spec)
	}
	if err != nil {
		return nil, err
	}
	return []*FigureResult{f}, f.Render(w)
}

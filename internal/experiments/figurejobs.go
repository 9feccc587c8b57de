package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"

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
	// SkipSim drops the simulated figures (fig8–fig11 and fig12sim)
	// from "all".
	SkipSim bool
}

// figureRow is one entry of the figure table: a figure ID and the study
// that renders it. An analytic-only figure's study has an empty job
// set.
type figureRow struct {
	id    string
	study func(FigureSpec) (study, error)
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
	{id: "fig12", study: onSurface(false, Fig12)},
	{id: "fig12sim", study: func(s FigureSpec) (study, error) { return newSuccessStudy(s.Sim) }},
	{id: "cfm", study: analyticOnly(func(s FigureSpec) (*FigureResult, error) { return CFMBaseline(s.Analytic) })},
	{id: "carrier", study: analyticOnly(func(s FigureSpec) (*FigureResult, error) { return CarrierSenseAblation(s.Analytic) })},
	{id: "costfn", study: analyticOnly(func(s FigureSpec) (*FigureResult, error) { return CostFunctions(s.Analytic, 5) })},
	{id: "percolation", study: func(FigureSpec) (study, error) { return cliPercolation(), nil }},
	{id: "collisions", study: func(s FigureSpec) (study, error) { return collisionStudy(s.Sim, 100) }},
	slotsRow(1, 2, 3, 4, 6, 8, 12),
	fieldRow(3, 5, 8, 12, 16),
	{id: "schemes", study: func(s FigureSpec) (study, error) { return schemeStudy(s.Sim, []float64{40, 100}) }},
	{id: "hetero", study: func(s FigureSpec) (study, error) { return heteroStudy(s.Sim, 80) }},
	{id: "refinedcfm", study: analyticOnly(func(s FigureSpec) (*FigureResult, error) { return RefinedCFM(s.Analytic, 5) })},
	{id: "joint", study: func(s FigureSpec) (study, error) {
		return jointStudy(s.Sim, 100, 15, []int{1, 2, 3, 4, 6, 9})
	}},
	{id: "mumode", study: analyticOnly(func(s FigureSpec) (*FigureResult, error) { return MuModeAblation(s.Analytic) })},
	{id: "degradation", study: func(s FigureSpec) (study, error) {
		return degradationStudy(s.Sim, s.DegRho, s.CrashRates, s.LossRates)
	}},
	{id: "shootout", study: func(s FigureSpec) (study, error) { return newShootStudy(s.Sim, s.ShootRhos) }},
}

// allRows is the figure list "all" renders, in emission order: the
// paper's figures, then the extras. It reuses the table's rows, except
// that slots and field sweep the narrower ranges "all" always has.
var allRows = slices.Concat(
	tableRows("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12sim", "fig12", "cfm", "carrier", "costfn"),
	[]figureRow{slotsRow(1, 2, 3, 4, 6, 8), fieldRow(3, 5, 8, 12)},
	tableRows("percolation"))

// simFigures are the rows FigureSpec.SkipSim drops from "all".
var simFigures = []string{"fig8", "fig9", "fig10", "fig11", "fig12sim"}

// slotsRow is the backoff-window sweep over the given slot counts.
func slotsRow(slots ...int) figureRow {
	return figureRow{id: "slots", study: analyticOnly(func(s FigureSpec) (*FigureResult, error) {
		return SlotSweep(80, slots, s.Analytic.Grid, s.Analytic.Constraints)
	})}
}

// fieldRow is the field-radius scaling study over the given radii.
func fieldRow(fields ...int) figureRow {
	return figureRow{id: "field", study: analyticOnly(func(s FigureSpec) (*FigureResult, error) {
		return FieldScaling(80, fields, 0.15, s.Analytic.Constraints)
	})}
}

// onSurface draws a figure from the spec's analytic or simulated
// surface.
func onSurface(simulated bool, draw surfaceDraw) func(FigureSpec) (study, error) {
	return func(s FigureSpec) (study, error) {
		pre := s.Analytic
		if simulated {
			pre = s.Sim
			if err := checkRuns("the simulated surface", pre.Runs); err != nil {
				return nil, err
			}
		}
		return surfaceStudy{pre: pre, simulated: simulated, draw: draw}, nil
	}
}

// plain lifts a paper figure that cannot fail.
func plain(fig func(*Surface) *FigureResult) surfaceDraw {
	return func(s *Surface) (*FigureResult, error) { return fig(s), nil }
}

// analyticStudy is an analytic-only figure: its job set is empty, and
// drawing it evaluates the model directly.
type analyticStudy func() (*FigureResult, error)

func (analyticStudy) jobs() []engine.Job { return nil }

func (st analyticStudy) figure([]engine.Result) (*FigureResult, error) {
	return st()
}

// analyticOnly makes an analytic-only figure a study.
func analyticOnly(fig func(FigureSpec) (*FigureResult, error)) func(FigureSpec) (study, error) {
	return func(s FigureSpec) (study, error) {
		return analyticStudy(func() (*FigureResult, error) { return fig(s) }), nil
	}
}

// FigureIDs lists every figure ID FigureJobs and RunFigures accept, in
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

// tableRows looks up rows of the figure table by ID; it panics on an
// unknown ID, which only a literal list in this package can pass.
func tableRows(ids ...string) []figureRow {
	rows := make([]figureRow, len(ids))
	for i, id := range ids {
		row, err := lookupFigure(id)
		if err != nil {
			panic(err)
		}
		rows[i] = row
	}
	return rows
}

// figureStudies builds the study of every figure in ids, in order,
// expanding "all" into its rows.
func figureStudies(spec FigureSpec, ids []string) ([]study, error) {
	var rows []figureRow
	for _, id := range ids {
		if id != "all" {
			row, err := lookupFigure(id)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
			continue
		}
		for _, row := range allRows {
			if !spec.SkipSim || !slices.Contains(simFigures, row.id) {
				rows = append(rows, row)
			}
		}
	}
	studies := make([]study, len(rows))
	for i, row := range rows {
		st, err := row.study(spec)
		if err != nil {
			return nil, err
		}
		studies[i] = st
	}
	return studies, nil
}

// FigureJobs builds the cacheable job set behind the selected figure —
// the unit of work the -shard split, the -merge assembly, and the
// coordinator/worker backend all agree on. For "all" it is the union of
// its figures' job sets.
func FigureJobs(id string, spec FigureSpec) ([]engine.Job, error) {
	studies, err := figureStudies(spec, []string{id})
	if err != nil {
		return nil, err
	}
	jobs, _ := unionJobs(studies)
	if len(jobs) == 0 {
		return nil, fmt.Errorf("figure %q has no cacheable job set to distribute", id)
	}
	return jobs, nil
}

// RunFigures renders the listed figures ("all" for the full report) to
// w, in list order, and returns them; a nil w renders nothing. Their job
// sets run on eng as one batch, so a cache-only engine assembles every
// figure from a sharded or distributed run's results without
// recomputing them.
func RunFigures(ctx context.Context, eng *engine.Engine, spec FigureSpec, w io.Writer,
	ids ...string) ([]*FigureResult, error) {
	studies, err := figureStudies(spec, ids)
	if err != nil {
		return nil, err
	}
	figs, err := runStudies(ctx, eng, studies)
	if err != nil || w == nil {
		return figs, err
	}
	for _, f := range figs {
		if err := f.Render(w); err != nil {
			return nil, err
		}
	}
	return figs, nil
}

package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"sensornet/internal/engine"
	"sensornet/internal/metrics"
	"sensornet/internal/optimize"
	"sensornet/internal/sim"
)

// testEngine is a fresh uncached engine for one test's figure.
func testEngine() *engine.Engine { return engine.New(engine.Config{}) }

// studyFigure runs a just-built study on a test engine through
// runStudies, the path RunFigures takes, passing a build error straight
// through: studyFigure(collisionStudy(pre, 60)).
func studyFigure(st study, err error) (*FigureResult, error) {
	if err != nil {
		return nil, err
	}
	figs, err := runStudies(context.Background(), testEngine(), []study{st})
	if err != nil {
		return nil, err
	}
	return figs[0], nil
}

// testSurface caches the quick analytic surface across tests in this
// package: computing it once keeps the suite fast.
var testSurface *Surface

func quickSurface(t *testing.T) *Surface {
	t.Helper()
	if testSurface == nil {
		s, err := AnalyticSurfaceCtx(context.Background(), testEngine(), QuickAnalytic())
		if err != nil {
			t.Fatal(err)
		}
		testSurface = s
	}
	return testSurface
}

func TestPresetShapes(t *testing.T) {
	pa := PaperAnalytic()
	if len(pa.Rhos) != 7 || len(pa.Grid) != 100 {
		t.Fatalf("paper analytic preset wrong: %d rhos, %d grid", len(pa.Rhos), len(pa.Grid))
	}
	if pa.Constraints.Latency != 5 || pa.Constraints.Reach != 0.72 || pa.Constraints.Budget != 35 {
		t.Fatalf("paper analytic constraints wrong: %+v", pa.Constraints)
	}
	ps := PaperSim()
	if len(ps.Grid) != 20 || ps.Runs != 30 {
		t.Fatalf("paper sim preset wrong: %d grid, %d runs", len(ps.Grid), ps.Runs)
	}
	if ps.Constraints.Reach != 0.63 || ps.Constraints.Budget != 80 {
		t.Fatalf("paper sim constraints wrong: %+v", ps.Constraints)
	}
}

func TestSurfaceDimensions(t *testing.T) {
	s := quickSurface(t)
	if len(s.Points) != len(s.Pre.Rhos) {
		t.Fatalf("surface has %d rows, want %d", len(s.Points), len(s.Pre.Rhos))
	}
	for i, row := range s.Points {
		if len(row) != len(s.Pre.Grid) {
			t.Fatalf("row %d has %d points, want %d", i, len(row), len(s.Pre.Grid))
		}
	}
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	f := Fig4(quickSurface(t))
	optP := f.Series["optimalP"]
	optV := f.Series["optimalValue"]
	if len(optP) != 4 {
		t.Fatalf("series length %d", len(optP))
	}
	// Optimal p decreases (weakly) with density and is small at 140.
	for i := 1; i < len(optP); i++ {
		if optP[i] > optP[i-1]+0.05 {
			t.Fatalf("optimal p not decreasing: %v", optP)
		}
	}
	if optP[len(optP)-1] > 0.2 {
		t.Fatalf("optimal p at rho=140 = %v, want small", optP[len(optP)-1])
	}
	// Achieved reachability roughly flat.
	lo, hi := optV[0], optV[0]
	for _, v := range optV {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo > 0.12 {
		t.Fatalf("optimal reachability not flat: %v", optV)
	}
	// Flooding trails the optimum at the highest density.
	flood := f.Series["flooding"]
	if flood[len(flood)-1] >= optV[len(optV)-1] {
		t.Fatalf("flooding %v should trail optimum %v", flood, optV)
	}
}

func TestFig5DualToFig4(t *testing.T) {
	s := quickSurface(t)
	f4 := Fig4(s)
	f5 := Fig5(s)
	// The paper's Fig. 5(b) optimal-p curve equals Fig. 4(b)'s when the
	// reach constraint equals the achieved optimum; with the fixed 0.72
	// constraint they still track closely.
	p4, p5 := f4.Series["optimalP"], f5.Series["optimalP"]
	for i := range p4 {
		if math.IsNaN(p5[i]) {
			continue
		}
		if math.Abs(p4[i]-p5[i]) > 0.15 {
			t.Fatalf("fig4/fig5 optimal p diverge at %d: %v vs %v", i, p4[i], p5[i])
		}
	}
	// Latency at optimum ~5 phases.
	for _, v := range f5.Series["optimalValue"] {
		if !math.IsNaN(v) && (v < 3 || v > 6) {
			t.Fatalf("optimal latency %v outside [3,6] phases", v)
		}
	}
}

func TestFig6EnergyOptimumSmall(t *testing.T) {
	f := Fig6(quickSurface(t))
	for i, p := range f.Series["optimalP"] {
		if math.IsNaN(p) {
			continue
		}
		if p > 0.15 {
			t.Fatalf("fig6 optimal p[%d] = %v, want within ~0.1", i, p)
		}
	}
}

func TestFig7BudgetShape(t *testing.T) {
	f := Fig7(quickSurface(t))
	optV := f.Series["optimalValue"]
	flood := f.Series["flooding"]
	for i := range optV {
		if flood[i] >= optV[i] {
			t.Fatalf("budgeted flooding should trail optimum: %v vs %v", flood[i], optV[i])
		}
	}
	// Flooding under a 35-broadcast budget reaches very little at high
	// density (paper: < 20%).
	if flood[len(flood)-1] > 0.3 {
		t.Fatalf("budgeted flooding at rho=140 = %v, want small", flood[len(flood)-1])
	}
}

func TestFig12RatioRoughlyConstant(t *testing.T) {
	f, err := Fig12(quickSurface(t))
	if err != nil {
		t.Fatal(err)
	}
	ratios := f.Series["ratio"]
	var clean []float64
	for _, r := range ratios {
		if !math.IsNaN(r) {
			clean = append(clean, r)
		}
	}
	if len(clean) < 3 {
		t.Fatalf("too few ratios: %v", ratios)
	}
	lo, hi := clean[0], clean[0]
	for _, r := range clean {
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	// Paper: nearly constant (~11). Allow a generous band: the claim
	// is constancy, not the absolute value.
	if hi/lo > 2.0 {
		t.Fatalf("ratio not roughly constant: %v", ratios)
	}
}

func TestCFMBaseline(t *testing.T) {
	f, err := studyFigure(cfmStudy(QuickAnalytic()))
	if err != nil {
		t.Fatal(err)
	}
	loss := f.Series["collisionLoss"]
	// Collision loss grows with density.
	if !(loss[len(loss)-1] > loss[0]) {
		t.Fatalf("collision loss should grow with density: %v", loss)
	}
}

func TestCarrierSenseAblation(t *testing.T) {
	pre := QuickAnalytic()
	pre.Rhos = []float64{40, 100}
	pre.Grid = pre.Grid[:25] // p <= 0.5 is where the optima live
	f, err := studyFigure(carrierStudy(pre))
	if err != nil {
		t.Fatal(err)
	}
	plain, cs := f.Series["optimalP"], f.Series["optimalPCS"]
	for i := range plain {
		if cs[i] > plain[i]+0.05 {
			t.Fatalf("carrier sensing should push optimum down: %v vs %v", cs, plain)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "demo", Header: []string{"a", "b"}}
	tb.Add("1", "2")
	tb.Add("3", "4")
	out := tb.String()
	for _, want := range []string{"demo", "a", "b", "1", "4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRendering(t *testing.T) {
	f := Fig4(quickSurface(t))
	var b strings.Builder
	if err := f.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fig4", "optimal", "rho=140"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q", want)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtF(math.NaN()) != "-" || fmtF1(math.NaN()) != "-" {
		t.Fatal("NaN should render as -")
	}
	if fmtF(0.5) != "0.500" || fmtF1(0.25) != "0.2" {
		t.Fatalf("formatting wrong: %s %s", fmtF(0.5), fmtF1(0.25))
	}
}

func TestCampaignAnalyticOnly(t *testing.T) {
	pre := QuickAnalytic()
	pre.Rhos = []float64{40, 100}
	var b strings.Builder
	figs, err := RunFigures(context.Background(), testEngine(), FigureSpec{Analytic: pre}, &b,
		"fig4", "fig5", "fig6", "fig7", "fig12")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, f := range figs {
		ids[f.ID] = true
	}
	for _, want := range []string{"fig4", "fig5", "fig6", "fig7", "fig12"} {
		if !ids[want] {
			t.Fatalf("campaign missing %s; got %v", want, ids)
		}
	}
	if !strings.Contains(b.String(), "fig6") {
		t.Fatal("campaign output not streamed")
	}
}

func TestSimFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated campaign in -short mode")
	}
	pre := QuickSim()
	pre.Rhos = []float64{30, 80}
	pre.Grid = []float64{0.05, 0.2, 0.6, 1}
	surf, err := SimSurfaceCtx(context.Background(), testEngine(), pre)
	if err != nil {
		t.Fatal(err)
	}
	f8 := Fig8(surf)
	optV := f8.Series["optimalValue"]
	for _, v := range optV {
		if v <= 0 || v > 1 {
			t.Fatalf("simulated optimal reach %v implausible", v)
		}
	}
	// Denser network should not prefer a larger p.
	optP := f8.Series["optimalP"]
	if optP[1] > optP[0]+0.2 {
		t.Fatalf("simulated optimal p rising with density: %v", optP)
	}
	f12, err := studyFigure(newSuccessStudy(pre))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f12.Series["successRate"] {
		if r <= 0 || r >= 1 {
			t.Fatalf("simulated success rate %v implausible", r)
		}
	}
}

// TestFig12SimZeroSuccessRate: where flooding never delivers (at
// rho = 0.04 the source is alone) fig12sim renders the ratio as "-", as
// Fig. 12 does, instead of dividing by the zero success rate.
func TestFig12SimZeroSuccessRate(t *testing.T) {
	pre := QuickSim()
	pre.Rhos = []float64{0.04}
	pre.Grid = []float64{0.5, 1}
	pre.Runs = 2
	f, err := studyFigure(newSuccessStudy(pre))
	if err != nil {
		t.Fatal(err)
	}
	if rate := f.Series["successRate"][0]; rate != 0 {
		t.Fatalf("success rate of a lone source = %v, want 0", rate)
	}
	if ratio := f.Series["ratio"][0]; !math.IsNaN(ratio) {
		t.Errorf("ratio at a zero success rate = %v, want NaN", ratio)
	}
	if cell := f.Tables[0].Rows[0][3]; cell != "-" {
		t.Errorf("ratio renders as %q, want \"-\"", cell)
	}
}

// TestSimSurfacePoolBuildsEachDeploymentOnce: the points of a density
// share each replication's deployment, so a quick sim surface builds
// one deployment per (density, replication) and leaves its pool empty.
func TestSimSurfacePoolBuildsEachDeploymentOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated surface in -short mode")
	}
	pre := QuickSim()
	pool := newPool()
	jobs := simPointJobs(pre, pool)
	if _, err := engine.New(engine.Config{Workers: 2}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if st, want := pool.Stats(), (sim.PoolStats{Builds: len(pre.Rhos) * pre.Runs}); st != want {
		t.Errorf("pool stats %+v, want %+v", st, want)
	}
}

// TestSimSurfaceNeedsRuns: a sim preset without replications fails with
// the run-count error on every path to the surface, before any run.
func TestSimSurfaceNeedsRuns(t *testing.T) {
	ctx := context.Background()
	pre := QuickSim()
	pre.Runs = 0
	check := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "needs Runs >= 1, got 0") {
			t.Errorf("%s: error %v, want the run-count error", path, err)
		}
	}
	_, err := SimSurfaceCtx(ctx, testEngine(), pre)
	check("SimSurfaceCtx", err)
	spec := FigureSpec{Analytic: QuickAnalytic(), Sim: pre}
	for _, id := range []string{"fig8", "fig12sim"} {
		_, err = RunFigures(ctx, testEngine(), spec, nil, id)
		check("RunFigures "+id, err)
	}
	_, err = testEngine().Run(ctx, SurfaceJobs(pre, true, 1))
	check("SurfaceJobs", err)
}

// TestPointCellMajorityRule: a surface point's latency and broadcasts
// average over the runs that reached the target, and read NaN unless at
// least half the runs did.
func TestPointCellMajorityRule(t *testing.T) {
	levels := optimize.Constraints{Latency: 1, Reach: 1, Budget: 1}
	// run reaches everyone at phase latency, or half the nodes.
	run := func(latency float64, reaches bool) *sim.Result {
		final := 0.5
		if reaches {
			final = 1
		}
		return &sim.Result{Timeline: metrics.Timeline{N: 10, Phases: []float64{0, latency},
			CumReach: []float64{0, final}, CumBroadcasts: []float64{0, 2 * latency}}}
	}
	point := func(runs ...*sim.Result) optimize.Point {
		var c pointCell
		for _, r := range runs {
			c.add(r, levels)
		}
		c.div(float64(len(runs)))
		return c.point(0.5)
	}
	if pt := point(run(1, true), run(1, false), run(1, false), run(1, false)); !math.IsNaN(pt.Latency) || !math.IsNaN(pt.Broadcasts) {
		t.Errorf("one feasible run of four: latency %v, broadcasts %v, want NaN", pt.Latency, pt.Broadcasts)
	}
	if pt := point(run(1, true), run(3, true), run(2, false)); pt.Latency != 2 || pt.Broadcasts != 4 {
		t.Errorf("two feasible runs of three: latency %v, broadcasts %v, want 2 and 4", pt.Latency, pt.Broadcasts)
	}
	if pt := point(); !math.IsNaN(pt.Latency) || !math.IsNaN(pt.Broadcasts) {
		t.Errorf("no runs: latency %v, broadcasts %v, want NaN", pt.Latency, pt.Broadcasts)
	}
}

// TestVariantSurfacesShareFig4Points: cfm's flooding column is fig4's
// p = 1 column, carrier's plain surface is fig4's surface, and the
// slots surface at s = 3 is fig4's ρ = 80 row, so a figure list holding
// them evaluates those points once.
func TestVariantSurfacesShareFig4Points(t *testing.T) {
	spec := FigureSpec{Analytic: PaperAnalytic()}
	fig4 := map[string]bool{}
	for _, j := range mustJobs(FigureJobs("fig4", spec)) {
		fig4[j.Fingerprint()] = true
	}
	shared := func(id string) (n int) {
		for _, j := range mustJobs(FigureJobs(id, spec)) {
			if fig4[j.Fingerprint()] {
				n++
			}
		}
		return n
	}
	if n := shared("cfm"); n != len(spec.Analytic.Rhos) {
		t.Errorf("cfm shares %d points with fig4, want its p=1 column of %d", n, len(spec.Analytic.Rhos))
	}
	if n := shared("carrier"); n != len(fig4) {
		t.Errorf("carrier shares %d of fig4's %d points", n, len(fig4))
	}
	if n := shared("slots"); n != len(spec.Analytic.Grid) {
		t.Errorf("slots shares %d points with fig4, want its s=3 row of %d", n, len(spec.Analytic.Grid))
	}
}

// TestFigureJobNamesIdentifyOneFingerprint: within one figure's job set
// a job name stands for one job, so the missing-job lists of -merge and
// the coordinator never show two jobs under one name. Variant analytic
// surfaces (carrier sensing, s, P, the phase cap, μ mode) name the
// fields they change.
func TestFigureJobNamesIdentifyOneFingerprint(t *testing.T) {
	for _, spec := range []struct {
		name string
		spec FigureSpec
	}{
		{"quick", FigureSpec{Analytic: QuickAnalytic(), Sim: QuickSim(), DegRho: 60}},
		{"paper", FigureSpec{Analytic: PaperAnalytic(), Sim: PaperSim(), DegRho: 60}},
	} {
		for _, id := range FigureIDs() {
			keys := map[string]map[string]bool{}
			for _, j := range mustJobs(FigureJobs(id, spec.spec)) {
				if keys[j.Name()] == nil {
					keys[j.Name()] = map[string]bool{}
				}
				keys[j.Name()][j.Fingerprint()] = true
			}
			shared, example := 0, ""
			for name, fps := range keys {
				if len(fps) > 1 {
					shared++
					example = name
				}
			}
			if shared > 0 {
				t.Errorf("%s presets, figure %s: %d job names carry several fingerprints (e.g. %s)",
					spec.name, id, shared, example)
			}
		}
	}
}

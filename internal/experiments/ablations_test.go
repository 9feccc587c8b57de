package experiments

import (
	"math"
	"testing"

	"sensornet/internal/analytic"
	"sensornet/internal/mathx"
	"sensornet/internal/metrics"
	"sensornet/internal/optimize"
)

func TestCollisionProfileShape(t *testing.T) {
	pre := QuickSim()
	pre.Rhos = []float64{60}
	pre.Grid = []float64{0.05, 0.3, 1}
	pre.Runs = 3
	f, err := studyFigure(collisionStudy(pre, 60))
	if err != nil {
		t.Fatal(err)
	}
	rates := f.Series["collisionRate"]
	if len(rates) != 3 {
		t.Fatalf("series length %d", len(rates))
	}
	// Collision rate rises monotonically with p.
	if !(rates[0] < rates[2]) {
		t.Fatalf("collision rate should rise with p: %v", rates)
	}
	for _, r := range rates {
		if r < 0 || r > 1 {
			t.Fatalf("rate %v outside [0,1]", r)
		}
	}
}

func TestSlotSweepShape(t *testing.T) {
	grid := mathx.Range(0.02, 1, 0.02)
	c := optimize.Constraints{Latency: 5, Reach: 0.72, Budget: 35}
	f, err := studyFigure(slotStudy(80, []int{1, 3, 8}, grid, c))
	if err != nil {
		t.Fatal(err)
	}
	optP := f.Series["optimalP"]
	reach := f.Series["optimalReach"]
	// More slots -> weakly larger optimal p and better reachability.
	if !(optP[2] >= optP[0]) {
		t.Fatalf("optimal p should rise with slots: %v", optP)
	}
	if !(reach[2] > reach[0]) {
		t.Fatalf("reachability should improve with slots: %v", reach)
	}
}

func TestSlotSweepErrorPropagation(t *testing.T) {
	c := optimize.Constraints{Latency: 5, Reach: 0.72, Budget: 35}
	if _, err := studyFigure(slotStudy(80, []int{0}, []float64{0.1}, c)); err == nil {
		t.Fatal("invalid slot count should error")
	}
}

func TestFieldScalingLatencyLinear(t *testing.T) {
	c := optimize.Constraints{Latency: 5, Reach: 0.5, Budget: 35}
	f, err := studyFigure(fieldStudy(80, []int{3, 6, 9}, 0.15, c))
	if err != nil {
		t.Fatal(err)
	}
	lats := f.Series["latency"]
	for _, l := range lats {
		if math.IsNaN(l) {
			t.Fatalf("latency infeasible: %v", lats)
		}
	}
	// Monotone growth with P...
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		t.Fatalf("latency should grow with field radius: %v", lats)
	}
	// ...and roughly linear: the increment 6->9 is within 2.5x of the
	// increment 3->6.
	d1, d2 := lats[1]-lats[0], lats[2]-lats[1]
	if d2 > 2.5*d1 || d1 > 2.5*d2 {
		t.Fatalf("latency growth far from linear: %v", lats)
	}
}

func TestTimelineAtHelper(t *testing.T) {
	tl, err := timelineAt(5, 3, 60, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Valid() {
		t.Fatal("helper timeline invalid")
	}
	if _, err := timelineAt(0, 3, 60, 0.2); err == nil {
		t.Fatal("invalid config should error")
	}
}

// timelineAt is the analytic timeline at one configuration.
func timelineAt(pp, s int, rho, p float64) (metrics.Timeline, error) {
	res, err := analytic.Run(analytic.Config{P: pp, S: s, Rho: rho, Prob: p})
	if err != nil {
		return metrics.Timeline{}, err
	}
	return res.Timeline, nil
}

func TestSchemeComparison(t *testing.T) {
	pre := QuickSim()
	pre.Runs = 3
	f, err := studyFigure(schemeStudy(pre, []float64{40}))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Tables) != 1 {
		t.Fatalf("tables = %d, want 1", len(f.Tables))
	}
	if len(f.Tables[0].Rows) != 7 {
		t.Fatalf("schemes = %d, want 7", len(f.Tables[0].Rows))
	}
	if c := f.Series["lawC"][0]; c < 10 || c > 16 {
		t.Fatalf("law constant %v implausible", c)
	}
}

func TestHeterogeneity(t *testing.T) {
	pre := QuickSim()
	pre.Runs = 4
	f, err := studyFigure(heteroStudy(pre, 60))
	if err != nil {
		t.Fatal(err)
	}
	reach := f.Series["reachAtL"]
	if len(reach) != 3 {
		t.Fatalf("series length %d", len(reach))
	}
	// Degree-adaptive (index 2) should not trail the global fixed p
	// (index 1) on the hotspot field by any meaningful margin.
	if reach[2] < reach[1]-0.05 {
		t.Fatalf("degree-adaptive %v trails fixed p %v on heterogeneous field",
			reach[2], reach[1])
	}
}

func TestRefinedCFM(t *testing.T) {
	pre := QuickAnalytic()
	pre.Rhos = []float64{20, 60, 100}
	f, err := studyFigure(refinedStudy(pre, 2))
	if err != nil {
		t.Fatal(err)
	}
	lat := f.Series["refinedLatency"]
	if len(lat) != 3 {
		t.Fatalf("series length %d", len(lat))
	}
	// Refined latency grows with density (honest costs), unlike the
	// naive CFM's constant P rounds.
	if !(lat[2] > lat[0]) {
		t.Fatalf("refined latency should grow with density: %v", lat)
	}
	if f.Series["fitTimeAt100"][0] < 50 {
		t.Fatalf("fitted t_f(100) = %v too small", f.Series["fitTimeAt100"][0])
	}
}

func TestJointDesign(t *testing.T) {
	pre := QuickSim()
	pre.Runs = 6
	pre.Grid = mathx.Range(0.04, 1, 0.04)
	f, err := studyFigure(jointStudy(pre, 100, 15, []int{1, 3, 6}))
	if err != nil {
		t.Fatal(err)
	}
	simReach := f.Series["simReach"]
	if len(simReach) != 3 {
		t.Fatalf("series length %d", len(simReach))
	}
	// The finding both engines agree on: s=1 beats s=6 under a fixed
	// slot budget, with s=3 in between or below s=1.
	if !(simReach[0] > simReach[2]) {
		t.Fatalf("s=1 should beat s=6 under a slot budget: %v", simReach)
	}
	ana := f.Series["analyticReach"]
	if !(ana[0] > ana[2]) {
		t.Fatalf("analytic ordering should agree: %v", ana)
	}
}

func TestMuModeAblation(t *testing.T) {
	pre := QuickAnalytic()
	pre.Rhos = []float64{40, 120}
	pre.Grid = mathx.Range(0.04, 1, 0.04)
	f, err := studyFigure(muModeStudy(pre))
	if err != nil {
		t.Fatal(err)
	}
	// Every mode preserves the headline shapes: p* decreases with
	// density and the plateau stays flat per mode.
	for _, name := range []string{"linear", "poisson", "round", "binomial"} {
		ps := f.Series[name+"P"]
		reach := f.Series[name+"Reach"]
		if len(ps) != 2 || len(reach) != 2 {
			t.Fatalf("%s series incomplete: %v %v", name, ps, reach)
		}
		if !(ps[1] < ps[0]) {
			t.Fatalf("%s: optimal p should fall with density: %v", name, ps)
		}
		if math.Abs(reach[1]-reach[0]) > 0.1 {
			t.Fatalf("%s: plateau not flat: %v", name, reach)
		}
	}
}

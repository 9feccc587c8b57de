package deploy

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sensornet/internal/geom"
)

func gen(t *testing.T, cfg Config, seed int64) *Deployment {
	t.Helper()
	d, err := Generate(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return d
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{P: 0, Rho: 20},
		{P: 5, R: -1, Rho: 20},
		{P: 5},
		{P: 5, N: -3},
		{P: 5, R: math.NaN(), Rho: 20},
		{P: 5, R: math.Inf(1), Rho: 20},
		{P: 5, R: math.Inf(-1), Rho: 20},
		{P: 5, Rho: math.NaN()},
		{P: 5, Rho: math.Inf(1)},
		{P: 5, Rho: math.Inf(-1), N: 10},
		{P: 5, Rho: 1e18},
		{P: 5, N: math.MaxInt32 + 1},
		{P: 1 << 20, Rho: 2048},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
		if _, err := Build(cfg, []geom.Point{{}}); err == nil {
			t.Errorf("case %d: Build accepted %+v", i, cfg)
		}
	}
	// The largest node count ids can name is still valid.
	for _, cfg := range []Config{{P: 1, N: math.MaxInt32}, {P: 1, Rho: math.MaxInt32}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

func TestNodeCountFromDensity(t *testing.T) {
	d := gen(t, Config{P: 5, Rho: 20}, 1)
	if d.N() != 500 {
		t.Fatalf("N = %d, want 500", d.N())
	}
}

func TestExplicitNOverridesRho(t *testing.T) {
	d := gen(t, Config{P: 5, Rho: 20, N: 123}, 1)
	if d.N() != 123 {
		t.Fatalf("N = %d, want 123", d.N())
	}
}

func TestSourceAtCentre(t *testing.T) {
	d := gen(t, Config{P: 5, Rho: 20}, 2)
	if d.Pos[0].Norm() != 0 {
		t.Fatal("node 0 must sit at the origin")
	}
}

func TestAllNodesInsideField(t *testing.T) {
	d := gen(t, Config{P: 4, R: 2, Rho: 30}, 3)
	for i, p := range d.Pos {
		if p.Norm() > d.FieldRadius+1e-9 {
			t.Fatalf("node %d at %v outside field radius %v", i, p, d.FieldRadius)
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	d := gen(t, Config{P: 3, Rho: 25}, 4)
	adj := make(map[[2]int32]bool)
	for i, ns := range d.Neighbors {
		for _, j := range ns {
			adj[[2]int32{int32(i), j}] = true
		}
	}
	for k := range adj {
		if !adj[[2]int32{k[1], k[0]}] {
			t.Fatalf("edge %v not symmetric", k)
		}
	}
}

func TestNeighborsMatchBruteForce(t *testing.T) {
	d := gen(t, Config{P: 3, Rho: 15}, 5)
	r2 := d.R * d.R
	for i := range d.Pos {
		want := map[int32]bool{}
		for j := range d.Pos {
			if i != j && d.Pos[i].Dist2(d.Pos[j]) <= r2 {
				want[int32(j)] = true
			}
		}
		if len(want) != len(d.Neighbors[i]) {
			t.Fatalf("node %d: grid found %d neighbours, brute force %d",
				i, len(d.Neighbors[i]), len(want))
		}
		for _, j := range d.Neighbors[i] {
			if !want[j] {
				t.Fatalf("node %d: spurious neighbour %d", i, j)
			}
		}
	}
}

func TestSensingListsMatchBruteForce(t *testing.T) {
	d := gen(t, Config{P: 3, Rho: 15, WithSensing: true}, 6)
	r2, s2 := d.R*d.R, 4*d.R*d.R
	for i := range d.Pos {
		want := map[int32]bool{}
		for j := range d.Pos {
			if i == j {
				continue
			}
			dd := d.Pos[i].Dist2(d.Pos[j])
			if dd > r2 && dd <= s2 {
				want[int32(j)] = true
			}
		}
		if len(want) != len(d.Sensing[i]) {
			t.Fatalf("node %d: sensing %d vs brute force %d",
				i, len(d.Sensing[i]), len(want))
		}
	}
}

func TestSensingNilWithoutRequest(t *testing.T) {
	d := gen(t, Config{P: 3, Rho: 15}, 7)
	if d.Sensing != nil {
		t.Fatal("sensing lists should be nil unless requested")
	}
}

func TestAvgDegreeTracksRho(t *testing.T) {
	// Interior nodes see ~ρ neighbours; the field average sits a bit
	// below due to boundary effects. Check the ballpark over several
	// seeds.
	rho := 40.0
	sum := 0.0
	for seed := int64(0); seed < 5; seed++ {
		d := gen(t, Config{P: 5, Rho: rho}, seed)
		sum += d.AvgDegree()
	}
	avg := sum / 5
	if avg < 0.6*rho || avg > 1.05*rho {
		t.Fatalf("avg degree %v implausible for rho %v", avg, rho)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := gen(t, Config{P: 4, Rho: 25}, 42)
	b := gen(t, Config{P: 4, Rho: 25}, 42)
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("positions diverge at node %d for equal seeds", i)
		}
	}
}

func TestReachableFromSourceDenseNetwork(t *testing.T) {
	d := gen(t, Config{P: 5, Rho: 40}, 8)
	reach := d.ReachableFromSource()
	// A ρ = 40 uniform disk is connected with overwhelming probability.
	if float64(reach) < 0.99*float64(d.N()) {
		t.Fatalf("only %d/%d nodes connected to source", reach, d.N())
	}
}

func TestReachableFromSourceSparse(t *testing.T) {
	// A near-empty field cannot all be connected.
	d := gen(t, Config{P: 10, Rho: 0.5}, 9)
	if got := d.ReachableFromSource(); got > d.N()/2 {
		t.Fatalf("sparse network unexpectedly connected: %d/%d", got, d.N())
	}
}

func TestDegreeAccessor(t *testing.T) {
	d := gen(t, Config{P: 3, Rho: 20}, 10)
	if d.Degree(0) != len(d.Neighbors[0]) {
		t.Fatal("Degree accessor mismatch")
	}
}

func TestRingOfSourceAndEdge(t *testing.T) {
	d := gen(t, Config{P: 5, Rho: 20}, 11)
	if d.RingOf(0) != 1 {
		t.Fatalf("source ring = %d, want 1", d.RingOf(0))
	}
	for i := range d.Pos {
		ring := d.RingOf(i)
		if ring < 1 || ring > 5 {
			t.Fatalf("node %d ring %d outside [1,5]", i, ring)
		}
	}
}

func TestUniformityByRingProperty(t *testing.T) {
	// Expected node share per ring is proportional to ring area:
	// (2j-1)/P². Check with a generous tolerance on a large sample.
	d := gen(t, Config{P: 5, Rho: 200}, 12)
	counts := make([]int, 6)
	for i := range d.Pos {
		counts[d.RingOf(i)]++
	}
	n := float64(d.N())
	for j := 1; j <= 5; j++ {
		want := float64(2*j-1) / 25
		got := float64(counts[j]) / n
		if math.Abs(got-want) > 0.03 {
			t.Errorf("ring %d share %v, want ~%v", j, got, want)
		}
	}
}

func TestSingleNodeDeployment(t *testing.T) {
	d := gen(t, Config{P: 1, N: 1}, 13)
	if d.N() != 1 || len(d.Neighbors[0]) != 0 {
		t.Fatal("single-node deployment malformed")
	}
	if d.ReachableFromSource() != 1 {
		t.Fatal("single node should reach itself")
	}
}

func TestGridIndexDegenerate(t *testing.T) {
	for _, tc := range []struct {
		name string
		pos  []geom.Point
		cell float64
	}{
		{"no nodes", nil, 1},
		{"zero cell", []geom.Point{{}, {X: 1}}, 0},
	} {
		g := newCellIndex(tc.pos, tc.cell)
		if g.cols != 0 || g.rows != 0 || len(g.start) != 0 || len(g.ids) != 0 || g.maxBlock() != 0 {
			t.Errorf("%s: index %+v, want empty", tc.name, g)
		}
	}
	// One row of two cells: nodes sort by cell, then by id, and either
	// cell's block is the one row, a single run over both cells.
	g := newCellIndex([]geom.Point{{}, {X: 1.5}, {X: 0.5}}, 1)
	if g.cols != 2 || g.rows != 1 || !reflect.DeepEqual(g.ids, []int32{0, 2, 1}) ||
		!reflect.DeepEqual(g.start, []int32{0, 2, 3}) {
		t.Fatalf("two-cell index %+v", g)
	}
	for c := 0; c < 2; c++ {
		if runs := g.block(c); runs != [3][2]int{{}, {0, 3}, {}} {
			t.Fatalf("cell %d block %v", c, runs)
		}
	}
	if g.maxBlock() != 3 {
		t.Fatalf("maxBlock %d, want 3", g.maxBlock())
	}
}

func TestNeighborListsStableUnderSensingOption(t *testing.T) {
	// Building with sensing lists must not change the plain neighbour
	// sets. Their order may differ: the grid cell size is R without
	// sensing and 2R with it, and the order follows the cells.
	f := func(seed int64) bool {
		a, err1 := Generate(Config{P: 3, Rho: 12}, rand.New(rand.NewSource(seed)))
		b, err2 := Generate(Config{P: 3, Rho: 12, WithSensing: true}, rand.New(rand.NewSource(seed)))
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a.Neighbors {
			x, y := slices.Clone(a.Neighbors[i]), slices.Clone(b.Neighbors[i])
			slices.Sort(x)
			slices.Sort(y)
			if !slices.Equal(x, y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerateRho60(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{P: 5, Rho: 60}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateRho140Sensing(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{P: 5, Rho: 140, WithSensing: true}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateSINR times the shootout's SINR deployments: P=5
// with sensing lists and α=3 gain tables, at its two densities.
func BenchmarkGenerateSINR(b *testing.B) {
	for _, tc := range []struct {
		name string
		rho  float64
	}{
		{"rho=40", 40},
		{"rho=100", 100},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(Config{P: 5, Rho: tc.rho, WithSensing: true, GainAlpha: 3}, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlace times the placement replay a pooled simulation run
// pays instead of a build: the draws alone, at the shootout's P and
// densities.
func BenchmarkPlace(b *testing.B) {
	for _, tc := range []struct {
		name string
		rho  float64
	}{
		{"rho=40", 40},
		{"rho=100", 100},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Place(Config{P: 5, Rho: tc.rho}, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlaceBuildMatchesGenerate pins the split Generate is made of:
// Place makes every draw and Build none, so composing them yields
// Generate's deployment and leaves the rng where Generate leaves it.
func TestPlaceBuildMatchesGenerate(t *testing.T) {
	for _, cfg := range []Config{
		{P: 4, Rho: 30},
		{P: 5, Rho: 100, WithSensing: true},
		{P: 5, Rho: 40, WithSensing: true, GainAlpha: 3},
		{P: 3, R: 2, N: 50, GainAlpha: 2.5},
		{P: 6, Grid: true},
		{P: 5, Rho: 60, Profile: func(r float64) float64 { return 4 - 3*r }},
	} {
		want, got := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		d, err := Generate(cfg, want)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := Place(cfg, got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(cfg, pos)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d, b) {
			t.Errorf("%+v: Build(Place) differs from Generate", cfg)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Errorf("%+v: next draw after Place %d, after Generate %d", cfg, g, w)
		}
	}
}

func TestGridDeploymentStructure(t *testing.T) {
	d := gen(t, Config{P: 6, Grid: true}, 1)
	if d.Pos[0].Norm() != 0 {
		t.Fatal("grid source must sit at the origin")
	}
	// Interior nodes have exactly 4 lattice neighbours.
	interior := 0
	for i := range d.Pos {
		if d.Pos[i].Norm() < d.FieldRadius-2*d.R {
			interior++
			if got := d.Degree(i); got != 4 {
				t.Fatalf("interior grid node %d has %d neighbours, want 4", i, got)
			}
		}
	}
	if interior == 0 {
		t.Fatal("no interior nodes to check")
	}
	// The lattice fills the disk: ~ pi * (P/0.999)^2 points.
	want := math.Pi * 36
	if math.Abs(float64(d.N())-want) > 0.15*want {
		t.Fatalf("grid node count %d far from %v", d.N(), want)
	}
}

func TestGridDeterministicAndRNGFree(t *testing.T) {
	a := gen(t, Config{P: 4, Grid: true}, 1)
	b := gen(t, Config{P: 4, Grid: true}, 999)
	if a.N() != b.N() {
		t.Fatal("grid layout must not depend on the seed")
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatal("grid positions must not depend on the seed")
		}
	}
}

func TestGridValidatesWithoutRho(t *testing.T) {
	if _, err := Generate(Config{P: 3, Grid: true}, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("grid config without Rho should be valid: %v", err)
	}
}

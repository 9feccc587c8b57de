package deploy

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sensornet/internal/geom"
)

// sameBuild fails unless got holds want's lists in want's order and
// want's gains bit for bit, and counts the reachable set a fresh walk
// of want's lists finds.
func sameBuild(t *testing.T, got, want *Deployment) {
	t.Helper()
	if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
		t.Fatal("neighbour lists differ from the reference build")
	}
	if !reflect.DeepEqual(got.Sensing, want.Sensing) {
		t.Fatal("sensing lists differ from the reference build")
	}
	for _, tc := range []struct {
		name      string
		got, want [][]float64
	}{
		{"gain", got.Gains, want.Gains},
		{"sensing gain", got.SensingGains, want.SensingGains},
	} {
		if (tc.got == nil) != (tc.want == nil) || len(tc.got) != len(tc.want) {
			t.Fatalf("%s tables: %d lists, reference %d", tc.name, len(tc.got), len(tc.want))
		}
		for i := range tc.want {
			if len(tc.got[i]) != len(tc.want[i]) {
				t.Fatalf("node %d: %d %ss, reference %d", i, len(tc.got[i]), tc.name, len(tc.want[i]))
			}
			for k, w := range tc.want[i] {
				if g := tc.got[i][k]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("node %d %s %d: %v, reference %v", i, tc.name, k, g, w)
				}
			}
		}
	}
	if got.GainAlpha != want.GainAlpha || got.R != want.R || got.FieldRadius != want.FieldRadius {
		t.Fatalf("header (α %v, R %v, field %v), reference (%v, %v, %v)",
			got.GainAlpha, got.R, got.FieldRadius, want.GainAlpha, want.R, want.FieldRadius)
	}
	if g, w := got.ReachableFromSource(), want.walkFromSource(); g != w {
		t.Fatalf("ReachableFromSource %d, a fresh walk finds %d", g, w)
	}
}

// TestBuildMatchesReference builds the placements the simulator and
// the studies use and holds each to the reference build.
func TestBuildMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{P: 5, Rho: 40},
		{P: 5, Rho: 100},
		{P: 5, Rho: 40, WithSensing: true},
		{P: 5, Rho: 100, WithSensing: true},
		{P: 5, Rho: 40, WithSensing: true, GainAlpha: 3},
		{P: 5, Rho: 100, WithSensing: true, GainAlpha: 3},
		{P: 5, Rho: 140, WithSensing: true},
		{P: 6, Grid: true},
		{P: 4, Grid: true, WithSensing: true, GainAlpha: 2.5},
		{P: 5, Rho: 60, Profile: func(r float64) float64 { return 4 - 3*r }},
		{P: 3, R: 2.5, Rho: 30, WithSensing: true, GainAlpha: 2.5},
		{P: 1, N: 1},
		{P: 1, N: 2},
		{P: 1, N: 2, WithSensing: true, GainAlpha: 3},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			pos, err := Place(cfg, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(cfg, pos)
			if err != nil {
				t.Fatal(err)
			}
			t.Run("", func(t *testing.T) { sameBuild(t, got, referenceBuild(cfg, pos)) })
		}
	}
}

// fuzzBuildInput decodes a build from fuzz bytes. shape picks sensing
// (bit 0), the gain exponent (bits 1–2: none, 2.5 or 3) and P (bits
// 3–5, P = 1..8); radius picks R = 0.25 + radius/32, so 24 is R = 1.
// Every 5 bytes of data place one node after the source at the origin:
// a mode byte and two little-endian uint16 coordinates spanning the
// field's bounding square. Mode bit 0 snaps the node to a lattice of
// spacing R/2, which puts nodes on cell edges and at exactly R or 2R;
// bit 1 drops it onto the previous node. A node outside the field has
// its coordinates halved, which brings it inside.
func fuzzBuildInput(data []byte, shape, radius uint8) (Config, []geom.Point) {
	const maxNodes = 400
	cfg := Config{
		P:           1 + int(shape>>3&7),
		R:           0.25 + float64(radius)/32,
		WithSensing: shape&1 == 1,
		GainAlpha:   [...]float64{0, 2.5, 3, 3}[shape>>1&3],
	}
	field := float64(cfg.P) * cfg.R
	q := cfg.R / 2
	pos := []geom.Point{{}}
	for ; len(data) >= 5 && len(pos) < maxNodes; data = data[5:] {
		mode := data[0]
		coord := func(b []byte) float64 {
			return (float64(binary.LittleEndian.Uint16(b))/32767.5 - 1) * field
		}
		p := geom.Point{X: coord(data[1:3]), Y: coord(data[3:5])}
		if mode&1 == 1 {
			p = geom.Point{X: math.Round(p.X/q) * q, Y: math.Round(p.Y/q) * q}
		}
		if mode&2 == 2 {
			p = pos[len(pos)-1]
		}
		if p.Norm() > field {
			p = geom.Point{X: p.X / 2, Y: p.Y / 2}
		}
		pos = append(pos, p)
	}
	cfg.N = len(pos)
	return cfg, pos
}

// FuzzBuild holds Build to the reference build on arbitrary layouts,
// including nodes on cell edges, at exactly R and 2R, and coincident.
func FuzzBuild(f *testing.F) {
	lattice := make([]byte, 0, 5*64)
	for i := 0; i < 64; i++ {
		lattice = append(lattice, 1, byte(i*37), byte(i*11), byte(i*53), byte(i*7))
	}
	f.Add([]byte{}, uint8(0), uint8(24))
	f.Add(lattice, uint8(0b010_11_1), uint8(24))
	f.Add(lattice, uint8(0b001_01_0), uint8(45))
	f.Add([]byte{0, 0x80, 0x7f, 0x80, 0x7f, 2, 0, 0, 0, 0}, uint8(0b000_10_1), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, shape, radius uint8) {
		cfg, pos := fuzzBuildInput(data, shape, radius)
		got, err := Build(cfg, pos)
		if err != nil {
			t.Fatalf("Build(%+v): %v", cfg, err)
		}
		sameBuild(t, got, referenceBuild(cfg, pos))
	})
}

// TestReachableFromSourceMatchesWalk pins the count a build keeps
// against a fresh breadth-first walk, for built deployments and for
// hand-built literals (which carry no count and so always walk).
func TestReachableFromSourceMatchesWalk(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, cfg := range []Config{
			{P: 10, Rho: 3},
			{P: 5, Rho: 8, WithSensing: true},
			{P: 5, Rho: 40},
		} {
			d := gen(t, cfg, seed)
			if got, want := d.ReachableFromSource(), bfsCount(d.Neighbors); got != want {
				t.Errorf("%+v seed %d: ReachableFromSource %d, BFS %d", cfg, seed, got, want)
			}
		}
	}
	for _, tc := range []struct {
		name string
		nbrs [][]int32
		want int
	}{
		{"empty", nil, 0},
		{"isolated source", [][]int32{{}, {2}, {1}}, 1},
		{"star", [][]int32{{1, 2, 3}, {0}, {0}, {0}}, 4},
		{"path with a detached pair", [][]int32{{1}, {0, 2}, {1}, {4}, {3}}, 3},
	} {
		d := &Deployment{R: 1, FieldRadius: 10, Pos: make([]geom.Point, len(tc.nbrs)), Neighbors: tc.nbrs}
		if got := d.ReachableFromSource(); got != tc.want || got != bfsCount(tc.nbrs) {
			t.Errorf("%s: ReachableFromSource %d, want %d", tc.name, got, tc.want)
		}
	}
}

// bfsCount is an independent breadth-first count of the nodes node 0
// reaches.
func bfsCount(nbrs [][]int32) int {
	if len(nbrs) == 0 {
		return 0
	}
	seen := map[int32]bool{0: true}
	for frontier := []int32{0}; len(frontier) > 0; {
		var next []int32
		for _, u := range frontier {
			for _, v := range nbrs[u] {
				if !seen[v] {
					seen[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return len(seen)
}

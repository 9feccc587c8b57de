package channel

import (
	"math/rand"
	"testing"

	"sensornet/internal/deploy"
	"sensornet/internal/geom"
)

// lineDeployment builds a hand-placed deployment on a line with unit
// transmission radius: positions control adjacency exactly.
func lineDeployment(t *testing.T, xs []float64, sensing bool) *deploy.Deployment {
	t.Helper()
	d := &deploy.Deployment{R: 1, FieldRadius: 100}
	for _, x := range xs {
		d.Pos = append(d.Pos, geom.Point{X: x})
	}
	// Build adjacency by brute force.
	n := len(xs)
	d.Neighbors = make([][]int32, n)
	if sensing {
		d.Sensing = make([][]int32, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dd := d.Pos[i].Dist(d.Pos[j])
			if dd <= 1 {
				d.Neighbors[i] = append(d.Neighbors[i], int32(j))
			} else if sensing && dd <= 2 {
				d.Sensing[i] = append(d.Sensing[i], int32(j))
			}
		}
	}
	return d
}

type delivery struct{ from, to int32 }

func collect(r *Resolver, txs []int32) []delivery {
	var out []delivery
	r.ResolveSlot(txs, func(from, to int32) {
		out = append(out, delivery{from, to})
	})
	return out
}

func TestNewResolverValidation(t *testing.T) {
	if _, err := NewResolver(CAM, nil); err == nil {
		t.Fatal("nil deployment should error")
	}
	d := lineDeployment(t, []float64{0, 0.5}, false)
	if _, err := NewResolver(CAMCarrierSense, d); err == nil {
		t.Fatal("carrier sense without sensing lists should error")
	}
	if _, err := NewResolver(CAM, d); err != nil {
		t.Fatalf("CAM resolver: %v", err)
	}
}

func TestSingleTransmitterDeliversToAllNeighbors(t *testing.T) {
	// 0 - 1 - 2 chain: node 1 in range of both.
	d := lineDeployment(t, []float64{0, 0.9, 1.8}, false)
	r, _ := NewResolver(CAM, d)
	got := collect(r, []int32{1})
	if len(got) != 2 {
		t.Fatalf("deliveries = %v, want 2", got)
	}
}

func TestCollisionAtCommonReceiver(t *testing.T) {
	// Nodes 0 and 2 both neighbour 1; transmitting together collides
	// at 1 but each also has a private neighbour.
	d := lineDeployment(t, []float64{0, 0.9, 1.8, -0.9, 2.7}, false)
	// adjacency: 0-{1,3}, 1-{0,2}, 2-{1,4}, 3-{0}, 4-{2}
	r, _ := NewResolver(CAM, d)
	got := collect(r, []int32{0, 2})
	want := map[delivery]bool{{0, 3}: true, {2, 4}: true}
	if len(got) != 2 {
		t.Fatalf("deliveries = %v, want exactly the private neighbours", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("unexpected delivery %v", g)
		}
	}
}

func TestCFMIgnoresCollisions(t *testing.T) {
	d := lineDeployment(t, []float64{0, 0.9, 1.8}, false)
	r, _ := NewResolver(CFM, d)
	got := collect(r, []int32{0, 2})
	// Both deliver to node 1 despite the concurrency.
	if len(got) != 2 {
		t.Fatalf("CFM deliveries = %v, want 2", got)
	}
}

func TestHalfDuplexTransmittersDoNotReceive(t *testing.T) {
	// 0 and 1 are mutual neighbours, both transmit.
	d := lineDeployment(t, []float64{0, 0.5}, false)
	for _, m := range []Model{CFM, CAM} {
		r, _ := NewResolver(m, d)
		if got := collect(r, []int32{0, 1}); len(got) != 0 {
			t.Fatalf("%v: transmitters received: %v", m, got)
		}
	}
}

func TestCarrierSenseBlocksAnnulusInterference(t *testing.T) {
	// 1 transmits to 0; node at distance 1.5 from 0 is outside range
	// but inside sensing distance. Plain CAM delivers; CAM+CS does not.
	d := lineDeployment(t, []float64{0, 0.9, 1.5}, true)
	cam, _ := NewResolver(CAM, d)
	cs, _ := NewResolver(CAMCarrierSense, d)
	// 1 -> 0 while 2 transmits concurrently. Node 2 neighbours 1
	// (distance 0.6) so at node 1 there is collision anyway; check
	// receiver 0: distance 0->2 is 1.5: sensing only.
	got := collect(cam, []int32{1, 2})
	delivered0 := false
	for _, g := range got {
		if g.to == 0 {
			delivered0 = true
		}
	}
	if !delivered0 {
		t.Fatal("plain CAM should deliver to node 0")
	}
	got = collect(cs, []int32{1, 2})
	for _, g := range got {
		if g.to == 0 {
			t.Fatalf("carrier sense should block delivery to node 0: %v", got)
		}
	}
}

func TestEpochReuseAcrossSlots(t *testing.T) {
	// Reusing the resolver must not leak state between slots.
	d := lineDeployment(t, []float64{0, 0.9, 1.8, -0.9, 2.7}, false)
	r, _ := NewResolver(CAM, d)
	_ = collect(r, []int32{0, 2}) // collision at 1
	got := collect(r, []int32{0}) // now 0 alone: delivers to 1 and 3
	if len(got) != 2 {
		t.Fatalf("second slot deliveries = %v, want 2", got)
	}
}

func TestEmptySlot(t *testing.T) {
	d := lineDeployment(t, []float64{0, 0.9}, false)
	r, _ := NewResolver(CAM, d)
	if got := collect(r, nil); got != nil {
		t.Fatalf("empty slot should deliver nothing, got %v", got)
	}
}

func TestThreeWayCollision(t *testing.T) {
	// Star: centre 0 with three leaves all transmitting.
	d := &deploy.Deployment{R: 1, FieldRadius: 10}
	d.Pos = []geom.Point{{}, {X: 0.9}, {X: -0.9}, {Y: 0.9}}
	d.Neighbors = [][]int32{{1, 2, 3}, {0}, {0}, {0}}
	r, _ := NewResolver(CAM, d)
	if got := collect(r, []int32{1, 2, 3}); len(got) != 0 {
		t.Fatalf("three-way collision should deliver nothing, got %v", got)
	}
}

func TestModelString(t *testing.T) {
	if CFM.String() != "CFM" || CAM.String() != "CAM" ||
		CAMCarrierSense.String() != "CAM+CS" || Model(9).String() != "Model(9)" {
		t.Fatal("Model string labels wrong")
	}
}

func TestDefaultCostsOrdering(t *testing.T) {
	cfm, cam := DefaultCosts(CFM), DefaultCosts(CAM)
	if !(cam.Time <= cfm.Time && cam.Energy <= cfm.Energy) {
		t.Fatal("paper requires t_a <= t_f and e_a <= e_f")
	}
	if DefaultCosts(CAMCarrierSense) != cam {
		t.Fatal("CS costs should match CAM")
	}
}

func TestResolverAgainstBruteForceRandom(t *testing.T) {
	// Random deployments: resolver must agree with a direct
	// per-receiver recount.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		dep, err := deploy.Generate(deploy.Config{P: 3, Rho: 12, WithSensing: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := NewResolver(CAMCarrierSense, dep)
		var txs []int32
		for i := 0; i < dep.N(); i++ {
			if rng.Float64() < 0.2 {
				txs = append(txs, int32(i))
			}
		}
		got := map[delivery]bool{}
		r.ResolveSlot(txs, func(f, to int32) { got[delivery{f, to}] = true })

		isTx := map[int32]bool{}
		for _, s := range txs {
			isTx[s] = true
		}
		want := map[delivery]bool{}
		for v := 0; v < dep.N(); v++ {
			if isTx[int32(v)] {
				continue
			}
			inRange, sensing := []int32{}, 0
			for _, s := range txs {
				dd := dep.Pos[v].Dist(dep.Pos[s])
				if dd <= dep.R {
					inRange = append(inRange, s)
				} else if dd <= 2*dep.R {
					sensing++
				}
			}
			if len(inRange) == 1 && sensing == 0 {
				want[delivery{inRange[0], int32(v)}] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: resolver %d deliveries, brute force %d", trial, len(got), len(want))
		}
		for k := range got {
			if !want[k] {
				t.Fatalf("trial %d: spurious delivery %v", trial, k)
			}
		}
	}
}

func BenchmarkResolveSlotDense(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	dep, err := deploy.Generate(deploy.Config{P: 5, Rho: 140}, rng)
	if err != nil {
		b.Fatal(err)
	}
	r, _ := NewResolver(CAM, dep)
	var txs []int32
	for i := 0; i < dep.N(); i += 20 {
		txs = append(txs, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ResolveSlot(txs, func(from, to int32) {})
	}
}

// BenchmarkResolveSlotSINR is BenchmarkResolveSlotDense under the
// physical model: the same field and transmitters, with sensing lists
// and α=3 gain tables, so each slot sums in-range and annulus power.
func BenchmarkResolveSlotSINR(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	dep, err := deploy.Generate(deploy.Config{P: 5, Rho: 140, WithSensing: true, GainAlpha: 3}, rng)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewResolver(ModelSINR, dep)
	if err != nil {
		b.Fatal(err)
	}
	var txs []int32
	for i := 0; i < dep.N(); i += 20 {
		txs = append(txs, int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ResolveSlot(txs, func(from, to int32) {})
	}
}

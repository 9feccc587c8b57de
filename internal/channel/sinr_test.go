package channel

import (
	"math"
	"math/rand"
	"testing"

	"sensornet/internal/deploy"
)

// withLineGains attaches path-gain tables to a hand-placed line
// deployment, mirroring what deploy.Generate precomputes when
// Config.GainAlpha is set.
func withLineGains(d *deploy.Deployment, alpha float64) *deploy.Deployment {
	r2 := d.R * d.R
	d.GainAlpha = alpha
	d.Gains = make([][]float64, len(d.Pos))
	d.SensingGains = make([][]float64, len(d.Pos))
	for i, nbrs := range d.Neighbors {
		for _, j := range nbrs {
			dd := d.Pos[i].Dist2(d.Pos[j])
			d.Gains[i] = append(d.Gains[i], deploy.PathGain(dd, r2, alpha))
		}
	}
	for i, ann := range d.Sensing {
		for _, j := range ann {
			dd := d.Pos[i].Dist2(d.Pos[j])
			d.SensingGains[i] = append(d.SensingGains[i], deploy.PathGain(dd, r2, alpha))
		}
	}
	return d
}

func TestSINRParamsValidate(t *testing.T) {
	if err := DefaultSINRParams().Validate(); err != nil {
		t.Fatalf("defaults should validate: %v", err)
	}
	bad := []SINRParams{
		{Alpha: 0, Beta: 1, N0: 0},
		{Alpha: -1, Beta: 1, N0: 0},
		{Alpha: 2, Beta: 0, N0: 0},
		{Alpha: 2, Beta: -1, N0: 0},
		{Alpha: 2, Beta: 1, N0: -0.1},
		{Alpha: math.NaN(), Beta: 1, N0: 0},
		{Alpha: math.Inf(1), Beta: 1, N0: 0},
		{Alpha: 2, Beta: math.NaN(), N0: 0},
		{Alpha: 2, Beta: math.Inf(1), N0: 0},
		{Alpha: 2, Beta: 1, N0: math.NaN()},
		{Alpha: 2, Beta: 1, N0: math.Inf(1)},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("params %+v should be rejected", p)
		}
	}
}

func TestNewResolverSINRValidation(t *testing.T) {
	if _, err := NewResolverSINR(nil, DefaultSINRParams()); err == nil {
		t.Fatal("nil deployment should error")
	}
	// No gain tables.
	plain := lineDeployment(t, []float64{0, 0.5}, true)
	if _, err := NewResolverSINR(plain, DefaultSINRParams()); err == nil {
		t.Fatal("deployment without gain tables should error")
	}
	if _, err := NewResolver(ModelSINR, plain); err == nil {
		t.Fatal("NewResolver(ModelSINR) without gain tables should error")
	}
	// Exponent mismatch between tables and params.
	d := withLineGains(lineDeployment(t, []float64{0, 0.5}, true), 2)
	if _, err := NewResolverSINR(d, DefaultSINRParams()); err == nil {
		t.Fatal("gain-table exponent mismatch should error")
	}
	p := DefaultSINRParams()
	p.Alpha = 2
	if _, err := NewResolverSINR(d, p); err != nil {
		t.Fatalf("valid SINR resolver: %v", err)
	}
}

func TestSINRSingleTransmitterReachesAllNeighbors(t *testing.T) {
	// With the default parameters a lone transmitter decodes at every
	// in-range receiver: the worst-case range-edge gain is 1 and
	// β·N₀ = 0.3 < 1, matching CAM's single-transmitter behaviour.
	d := withLineGains(lineDeployment(t, []float64{0, 0.9, 1.8}, true), DefaultSINRParams().Alpha)
	r, err := NewResolver(ModelSINR, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(r, []int32{1}); len(got) != 2 {
		t.Fatalf("deliveries = %v, want both neighbours", got)
	}
}

func TestSINRCaptureStrongTransmitterWins(t *testing.T) {
	// Receiver 0 hears a near transmitter (0.3 away, gain ≈ 37) and a
	// far one (1.0 away, gain 1). CAM calls this a collision; SINR
	// decodes the strong signal and destroys only the weak one.
	d := withLineGains(lineDeployment(t, []float64{0, 0.3, 1.0}, true), DefaultSINRParams().Alpha)
	cam, _ := NewResolver(CAM, d)
	if got := collect(cam, []int32{1, 2}); len(got) != 0 {
		t.Fatalf("CAM should collide at receiver 0, got %v", got)
	}
	r, _ := NewResolver(ModelSINR, d)
	var colls int
	var got []delivery
	r.ResolveSlotTraced([]int32{1, 2},
		func(from, to int32) { got = append(got, delivery{from, to}) },
		func(to, heard int32) { colls++ })
	if len(got) != 1 || got[0] != (delivery{1, 0}) {
		t.Fatalf("deliveries = %v, want capture of the strong transmitter only", got)
	}
	if colls != 1 {
		t.Fatalf("collided reports = %d, want 1 (the destroyed weak reception)", colls)
	}
}

func TestSINRAnnulusInterferenceBlocksDecode(t *testing.T) {
	// The interferer at 1.05 is outside receiver 0's range (no CAM
	// collision possible) but its sensing-annulus power still drags the
	// edge signal below threshold: 1.166 < 1.5·(0.2 + 0.864).
	d := withLineGains(lineDeployment(t, []float64{0, 0.95, 1.05}, true), DefaultSINRParams().Alpha)
	r, _ := NewResolver(ModelSINR, d)
	for _, g := range collect(r, []int32{1, 2}) {
		if g.to == 0 {
			t.Fatalf("annulus interference should block delivery to node 0: %v", g)
		}
	}
}

// TestSINRResolverAgainstBruteForceRandom is the SINR counterpart of
// TestResolverAgainstBruteForceRandom: the resolver's precomputed-gain
// fast path must agree bit for bit with a naive O(n²) recount that sums
// path-loss power per receiver directly from positions. Both sides
// accumulate in txs order with identical deploy.PathGain terms, so the
// decode decisions — float comparisons included — must match exactly.
func TestSINRResolverAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	params := DefaultSINRParams()
	for trial := 0; trial < 20; trial++ {
		dep, err := deploy.Generate(deploy.Config{
			P: 3, Rho: 12, WithSensing: true, GainAlpha: params.Alpha,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewResolverSINR(dep, params)
		if err != nil {
			t.Fatal(err)
		}
		var txs []int32
		for i := 0; i < dep.N(); i++ {
			if rng.Float64() < 0.2 {
				txs = append(txs, int32(i))
			}
		}
		got := map[delivery]bool{}
		gotColl := map[int32]bool{}
		r.ResolveSlotTraced(txs,
			func(f, to int32) { got[delivery{f, to}] = true },
			func(to, heard int32) { gotColl[to] = true })

		isTx := map[int32]bool{}
		for _, s := range txs {
			isTx[s] = true
		}
		r2 := dep.R * dep.R
		s2 := 4 * r2
		want := map[delivery]bool{}
		wantColl := map[int32]bool{}
		for v := 0; v < dep.N(); v++ {
			if isTx[int32(v)] {
				continue
			}
			power := 0.0
			for _, s := range txs {
				if dd := dep.Pos[v].Dist2(dep.Pos[s]); dd <= s2 {
					power += deploy.PathGain(dd, r2, params.Alpha)
				}
			}
			for _, s := range txs {
				dd := dep.Pos[v].Dist2(dep.Pos[s])
				if dd > r2 {
					continue
				}
				sig := deploy.PathGain(dd, r2, params.Alpha)
				if sig >= params.Beta*(params.N0+power-sig) {
					want[delivery{s, int32(v)}] = true
				} else {
					wantColl[int32(v)] = true
				}
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
		if len(gotColl) != len(wantColl) {
			t.Fatalf("trial %d: resolver %d collided receivers, brute force %d",
				trial, len(gotColl), len(wantColl))
		}
		for v := range gotColl {
			if !wantColl[v] {
				t.Fatalf("trial %d: spurious collision report at %d", trial, v)
			}
		}
	}
}

func TestSINRModelString(t *testing.T) {
	if ModelSINR.String() != "SINR" {
		t.Fatalf("ModelSINR.String() = %q", ModelSINR.String())
	}
}

func TestSINREpochReuseAcrossSlots(t *testing.T) {
	// Reusing the resolver must not leak accumulated power between
	// slots: after a crowded slot, a lone transmitter decodes cleanly.
	d := withLineGains(lineDeployment(t, []float64{0, 0.9, 1.8}, true), DefaultSINRParams().Alpha)
	r, _ := NewResolver(ModelSINR, d)
	_ = collect(r, []int32{0, 2}) // both interfere at receiver 1
	if got := collect(r, []int32{1}); len(got) != 2 {
		t.Fatalf("second slot deliveries = %v, want both neighbours", got)
	}
}

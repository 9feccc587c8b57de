package deploy

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestGainTablesMatchPathGain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, err := Generate(Config{P: 3, Rho: 15, WithSensing: true, GainAlpha: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.GainAlpha != 3 {
		t.Fatalf("GainAlpha = %v, want 3", d.GainAlpha)
	}
	r2 := d.R * d.R
	for i := range d.Pos {
		if len(d.Gains[i]) != len(d.Neighbors[i]) {
			t.Fatalf("node %d: %d gains for %d neighbours", i, len(d.Gains[i]), len(d.Neighbors[i]))
		}
		for k, j := range d.Neighbors[i] {
			want := PathGain(d.Pos[i].Dist2(d.Pos[j]), r2, 3)
			if d.Gains[i][k] != want {
				t.Fatalf("gain(%d,%d) = %v, want %v (bit-exact)", i, j, d.Gains[i][k], want)
			}
			if d.Gains[i][k] < 1 {
				t.Fatalf("in-range gain(%d,%d) = %v < 1: normalisation is (d/R)^-α", i, j, d.Gains[i][k])
			}
		}
		if len(d.SensingGains[i]) != len(d.Sensing[i]) {
			t.Fatalf("node %d: %d sensing gains for %d annulus nodes", i, len(d.SensingGains[i]), len(d.Sensing[i]))
		}
		for k, j := range d.Sensing[i] {
			want := PathGain(d.Pos[i].Dist2(d.Pos[j]), r2, 3)
			if d.SensingGains[i][k] != want {
				t.Fatalf("sensing gain(%d,%d) = %v, want %v (bit-exact)", i, j, d.SensingGains[i][k], want)
			}
			if g := d.SensingGains[i][k]; g >= 1 {
				t.Fatalf("annulus gain(%d,%d) = %v >= 1", i, j, g)
			}
		}
	}
}

func TestGainTablesNilWithoutGainAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, err := Generate(Config{P: 3, Rho: 15, WithSensing: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.Gains != nil || d.SensingGains != nil || d.GainAlpha != 0 {
		t.Fatal("gain tables should stay nil when GainAlpha is unset")
	}
}

// TestGainAlphaDoesNotPerturbPositions pins the common-random-numbers
// property the shootout campaign leans on: positions are sampled before
// the neighbour build, so enabling sensing lists or gain tables must
// not shift a single node. The same seed therefore deploys identical
// fields under CFM, CAM, and SINR.
func TestGainAlphaDoesNotPerturbPositions(t *testing.T) {
	base, err := Generate(Config{P: 3, Rho: 15}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	gained, err := Generate(Config{P: 3, Rho: 15, WithSensing: true, GainAlpha: 3}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Pos) != len(gained.Pos) {
		t.Fatalf("node counts differ: %d vs %d", len(base.Pos), len(gained.Pos))
	}
	for i := range base.Pos {
		if base.Pos[i] != gained.Pos[i] {
			t.Fatalf("node %d moved: %v vs %v", i, base.Pos[i], gained.Pos[i])
		}
	}
}

func TestValidateRejectsNegativeGainAlpha(t *testing.T) {
	for _, alpha := range []float64{-1, math.Inf(-1), math.NaN(), math.Inf(1)} {
		cfg := Config{P: 3, Rho: 15, GainAlpha: alpha}
		if err := cfg.Validate(); err == nil {
			t.Fatalf("GainAlpha %v should be rejected", alpha)
		}
	}
}

func TestPathGainClampsCoincidentPoints(t *testing.T) {
	g := PathGain(0, 1, 3)
	if g != PathGain(1e-13, 1, 3) {
		t.Fatal("sub-clamp distances should all hit the clamp value")
	}
	if g <= 0 || g != g || g > 1e20 {
		t.Fatalf("clamped gain = %v, want large finite positive", g)
	}
}

// TestPathGainAlpha3Accuracy holds the α=3 closed form to the error
// bound of its three correctly rounded operations, 3·2⁻⁵³ relative to
// x^-1.5 evaluated at 256 bits, over a log sweep of x = dd/r² from the
// coincident-point clamp to the sensing edge. In ulps that is under 3;
// the sweep reports its worst case. The exact values at the range edge
// and at 2R are pinned too.
func TestPathGainAlpha3Accuracy(t *testing.T) {
	const points = 20001
	lo, hi := math.Log(1e-12), math.Log(4)
	bound := 3 * math.Ldexp(1, -53)
	worst := 0.0
	for i := 0; i < points; i++ {
		x := math.Exp(lo + (hi-lo)*float64(i)/(points-1))
		got := PathGain(x, 1, 3)
		bx := new(big.Float).SetPrec(256).SetFloat64(x)
		root := new(big.Float).SetPrec(256).Sqrt(bx)
		exact := new(big.Float).SetPrec(256).Quo(big.NewFloat(1).SetPrec(256), root.Mul(root, bx))
		diff := new(big.Float).SetPrec(256).Sub(big.NewFloat(got).SetPrec(256), exact)
		d, _ := diff.Abs(diff).Float64()
		w, _ := exact.Float64()
		if d > bound*w {
			t.Fatalf("PathGain(%g, 1, 3) = %v, exact %v: relative error %g > 3·2⁻⁵³", x, got, w, d/w)
		}
		worst = math.Max(worst, d/(math.Nextafter(w, math.Inf(1))-w))
	}
	t.Logf("worst error over %d points: %.3f ulp", points, worst)
	for _, r2 := range []float64{1, 2.25, 0.49} {
		if g := PathGain(r2, r2, 3); g != 1 {
			t.Errorf("range-edge gain at r2=%v = %v, want exactly 1", r2, g)
		}
		if g := PathGain(4*r2, r2, 3); g != 0.125 {
			t.Errorf("2R gain at r2=%v = %v, want exactly 0.125", r2, g)
		}
	}
}

package buckets

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMuCSHandValues(t *testing.T) {
	cases := []struct {
		k1, k2, s int
		want      float64
	}{
		{1, 0, 1, 1},
		{1, 0, 5, 1},
		{0, 3, 4, 0},
		{-1, 0, 3, 0},
		{2, 0, 4, 0}, // falls back to μ semantics below
		{1, 1, 1, 0}, // single bucket holds both A and B
	}
	// {2,0,4}: with no B items μ' = μ.
	cases[4].want = Mu(2, 4)
	for _, c := range cases {
		if got := MuCS(c.k1, c.k2, c.s); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("MuCS(%d,%d,%d) = %v, want %v", c.k1, c.k2, c.s, got, c.want)
		}
	}
}

func TestMuCSOneEach(t *testing.T) {
	// K1 = 1, K2 = 1, s = 2: success iff the two items land in
	// different buckets = 1/2.
	if got := MuCS(1, 1, 2); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("MuCS(1,1,2) = %v, want 0.5", got)
	}
	// s = 3: P(different) = 2/3.
	if got := MuCS(1, 1, 3); !almostEqual(got, 2.0/3, 1e-12) {
		t.Fatalf("MuCS(1,1,3) = %v, want 2/3", got)
	}
}

// TestMuCSReducesToMuWithoutInterferers pins μ'(K, 0, s) = μ(K, s) bit
// for bit, inside and past both lattices' bounds.
func TestMuCSReducesToMuWithoutInterferers(t *testing.T) {
	for s := -1; s <= 40; s++ {
		for k := -1; k < 1100; k++ {
			if a, b := MuCS(k, 0, s), Mu(k, s); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("MuCS(%d, 0, %d) = %v, Mu(%d, %d) = %v", k, s, a, k, s, b)
			}
		}
	}
}

func TestMuCSMatchesRecursionProperty(t *testing.T) {
	f := func(k1Raw, k2Raw, sRaw uint8) bool {
		k1 := int(k1Raw%10) + 1
		k2 := int(k2Raw % 10)
		s := int(sRaw%5) + 1
		return almostEqual(MuCS(k1, k2, s), MuCSRecursive(k1, k2, s), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMuCSMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ k1, k2, s int }{{3, 2, 3}, {5, 8, 4}, {2, 1, 2}, {8, 3, 3}}
	const trials = 200000
	for _, c := range cases {
		hits := 0
		a := make([]int, c.s)
		b := make([]int, c.s)
		for trial := 0; trial < trials; trial++ {
			for i := 0; i < c.s; i++ {
				a[i], b[i] = 0, 0
			}
			for i := 0; i < c.k1; i++ {
				a[rng.Intn(c.s)]++
			}
			for i := 0; i < c.k2; i++ {
				b[rng.Intn(c.s)]++
			}
			for i := 0; i < c.s; i++ {
				if a[i] == 1 && b[i] == 0 {
					hits++
					break
				}
			}
		}
		got := float64(hits) / trials
		want := MuCS(c.k1, c.k2, c.s)
		if !almostEqual(got, want, 0.005) {
			t.Errorf("MuCS(%d,%d,%d): Monte Carlo %v vs analytic %v",
				c.k1, c.k2, c.s, got, want)
		}
	}
}

func TestMuCSInterferenceHurtsProperty(t *testing.T) {
	// Adding carrier-sensing interferers can only lower the success
	// probability.
	f := func(k1Raw, k2Raw, sRaw uint8) bool {
		k1 := int(k1Raw%20) + 1
		k2 := int(k2Raw % 40)
		s := int(sRaw%8) + 1
		return MuCS(k1, k2+1, s) <= MuCS(k1, k2, s)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMuCSBoundedByMuProperty(t *testing.T) {
	f := func(k1Raw, k2Raw, sRaw uint8) bool {
		k1 := int(k1Raw%30) + 1
		k2 := int(k2Raw % 60)
		s := int(sRaw%8) + 1
		v := MuCS(k1, k2, s)
		return v >= 0 && v <= Mu(k1, s)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMuCSRealEndpointsAndModes(t *testing.T) {
	if got := MuCSReal(3, 2, 3, KLinear); !almostEqual(got, MuCS(3, 2, 3), 1e-12) {
		t.Fatalf("integer grid point = %v, want %v", got, MuCS(3, 2, 3))
	}
	if MuCSReal(0, 2, 3, KLinear) != 0 {
		t.Fatal("k1 = 0 should give 0")
	}
	if got := MuCSReal(3, -4, 3, KLinear); !almostEqual(got, MuCS(3, 0, 3), 1e-12) {
		t.Fatal("negative k2 should clamp to 0")
	}
	if got := MuCSReal(2.6, 1.4, 3, KRound); got != MuCS(3, 1, 3) {
		t.Fatalf("KRound = %v, want MuCS(3,1,3)", got)
	}
}

func TestMuCSRealBilinearInterior(t *testing.T) {
	// The bilinear value must lie within the envelope of its four
	// corners.
	k1, k2 := 3.3, 2.7
	corners := []float64{
		MuCS(3, 2, 3), MuCS(4, 2, 3), MuCS(3, 3, 3), MuCS(4, 3, 3),
	}
	lo, hi := corners[0], corners[0]
	for _, v := range corners {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	got := MuCSReal(k1, k2, 3, KLinear)
	if got < lo-1e-12 || got > hi+1e-12 {
		t.Fatalf("bilinear %v outside corner envelope [%v,%v]", got, lo, hi)
	}
}

func TestMuCSRealPoissonAgreesWithLinearRoughly(t *testing.T) {
	a := MuCSReal(4, 3, 3, KPoisson)
	b := MuCSReal(4, 3, 3, KLinear)
	if math.Abs(a-b) > 0.15 {
		t.Fatalf("poisson %v and linear %v diverge unreasonably", a, b)
	}
}

func BenchmarkMuCSClosedForm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MuCS(1+i%60, i%180, 3)
	}
}

func BenchmarkMuCSRealLinear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MuCSReal(float64(i%60)+0.4, float64(i%180)+0.2, 3, KLinear)
	}
}

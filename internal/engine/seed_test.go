package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(7, "costfn", 40.0)
	b := DeriveSeed(7, "costfn", 40.0)
	if a != b {
		t.Fatalf("same inputs, different seeds: %d vs %d", a, b)
	}
	if a < 0 {
		t.Fatalf("seed %d negative", a)
	}
}

func TestDeriveSeedSensitivity(t *testing.T) {
	base := DeriveSeed(7, "costfn", 40.0)
	for name, other := range map[string]int64{
		"base":  DeriveSeed(8, "costfn", 40.0),
		"label": DeriveSeed(7, "hetero", 40.0),
		"part":  DeriveSeed(7, "costfn", 60.0),
		"arity": DeriveSeed(7, "costfn", 40.0, 0),
	} {
		if other == base {
			t.Fatalf("changing %s did not change the seed", name)
		}
	}
}

// TestDeriveSeedAvoidsAffineCollisions reproduces the collision class
// of the former seed*7919+rho derivation: nearby (seed, rho) pairs that
// alias under an affine map must not alias under DeriveSeed.
func TestDeriveSeedAvoidsAffineCollisions(t *testing.T) {
	// Affine: 0*7919+7919 == 1*7919+0, so (seed=0, rho=7919) and
	// (seed=1, rho=0) collided. More practically, seeds 0..n and the
	// paper's rho grid 20..140 step 20 generate dense affine overlap.
	seen := map[int64][2]any{}
	for seed := int64(0); seed < 50; seed++ {
		for _, rho := range []float64{20, 40, 60, 80, 100, 120, 140} {
			s := DeriveSeed(seed, "costfn-deploy", rho)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%v) and %v both map to %d",
					seed, rho, prev, s)
			}
			seen[s] = [2]any{seed, rho}
		}
	}
}

func TestFingerprintSeparatesFields(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("field boundaries not preserved")
	}
	if Fingerprint("a", 1, 2.5) != Fingerprint("a", 1, 2.5) {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint([]float64{1, 2}) == Fingerprint([]float64{1, 2, 3}) {
		t.Fatal("slice contents not captured")
	}
}

// level is a named int with a String method: Fingerprint must format
// it through that method, as fmt's %v does.
type level int

func (l level) String() string { return fmt.Sprintf("level-%d", int(l)) }

// TestFingerprintFastPathMatchesFmt holds Fingerprint's strconv path to
// fmt's %v, part by part, on random values and the specials of every
// fast-path type.
func TestFingerprintFastPathMatchesFmt(t *testing.T) {
	parts := []any{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1e20, 1e21, 1e-4, 1e-5, 0.1, 0.15, 60.0,
		int64(math.MinInt64), int64(math.MaxInt64), int64(0), int64(-1),
		math.MinInt, math.MaxInt, 0, -7,
		true, false,
		"", "analytic-point-v2", "ρ=60 · p=0.15", "日本語", "\x1f\x00", "\xff\xfe",
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20000; i++ {
		runes := make([]rune, rng.Intn(8))
		for j := range runes {
			runes[j] = rune(rng.Intn(0x3000))
		}
		parts = append(parts,
			math.Float64frombits(rng.Uint64()),
			rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)),
			float64(rng.Intn(2000))/100,
			int64(rng.Uint64()), int(rng.Uint64()),
			rng.Intn(2) == 0,
			string(runes))
	}
	for _, p := range parts {
		if got, want := Fingerprint(p), fmt.Sprintf("%v", p); got != want {
			t.Fatalf("Fingerprint(%T %v) = %q, fmt's %%v = %q", p, p, got, want)
		}
	}
	if got, want := Fingerprint("a", level(3), 2.5), "a\x1flevel-3\x1f2.5"; got != want {
		t.Fatalf("named type with a String method: Fingerprint = %q, want %q", got, want)
	}
}

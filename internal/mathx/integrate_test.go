package mathx

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSimpsonNPolynomialExact(t *testing.T) {
	// Simpson is exact for cubics.
	f := func(x float64) float64 { return 3*x*x*x - 2*x*x + x - 7 }
	got := SimpsonN(f, -1, 2, 2)
	want := func(x float64) float64 { return 0.75*x*x*x*x - 2.0/3.0*x*x*x + 0.5*x*x - 7*x }
	w := want(2) - want(-1)
	if !almostEqual(got, w, 1e-12) {
		t.Fatalf("SimpsonN cubic = %v, want %v", got, w)
	}
}

func TestSimpsonNSine(t *testing.T) {
	got := SimpsonN(math.Sin, 0, math.Pi, 200)
	if !almostEqual(got, 2, 1e-8) {
		t.Fatalf("integral of sin over [0,pi] = %v, want 2", got)
	}
}

func TestSimpsonNReversedInterval(t *testing.T) {
	got := SimpsonN(math.Sin, math.Pi, 0, 200)
	if !almostEqual(got, -2, 1e-8) {
		t.Fatalf("reversed interval = %v, want -2", got)
	}
}

func TestSimpsonNEmptyInterval(t *testing.T) {
	if got := SimpsonN(math.Exp, 1.5, 1.5, 100); got != 0 {
		t.Fatalf("empty interval = %v, want 0", got)
	}
}

func TestSimpsonNOddSubdivisionsRoundedUp(t *testing.T) {
	a := SimpsonN(math.Sin, 0, 1, 11)
	b := SimpsonN(math.Sin, 0, 1, 12)
	if a != b {
		t.Fatalf("odd n should round up: %v != %v", a, b)
	}
}

func TestSimpsonNNaNEndpoint(t *testing.T) {
	if got := SimpsonN(math.Sin, math.NaN(), 1, 10); !math.IsNaN(got) {
		t.Fatalf("NaN endpoint = %v, want NaN", got)
	}
}

func BenchmarkSimpsonN200(b *testing.B) {
	f := func(x float64) float64 { return math.Exp(-x*x) * math.Cos(3*x) }
	for i := 0; i < b.N; i++ {
		SimpsonN(f, 0, 3, 200)
	}
}

package mathx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestLerp(t *testing.T) {
	if Lerp(2, 4, 0.5) != 3 {
		t.Fatal("midpoint lerp failed")
	}
	if Lerp(2, 4, 0) != 2 || Lerp(2, 4, 1) != 4 {
		t.Fatal("endpoint lerp failed")
	}
	if Lerp(2, 4, 2) != 6 {
		t.Fatal("extrapolation failed")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp failed")
	}
}

func TestInterpAtExactKnots(t *testing.T) {
	xs := []float64{0, 1, 3}
	ys := []float64{10, 20, 40}
	for i := range xs {
		if got := InterpAt(xs, ys, xs[i]); got != ys[i] {
			t.Errorf("InterpAt at knot %d = %v, want %v", i, got, ys[i])
		}
	}
}

func TestInterpAtBetweenKnots(t *testing.T) {
	xs := []float64{0, 1, 3}
	ys := []float64{10, 20, 40}
	if got := InterpAt(xs, ys, 2); got != 30 {
		t.Fatalf("InterpAt(2) = %v, want 30", got)
	}
	if got := InterpAt(xs, ys, 0.25); got != 12.5 {
		t.Fatalf("InterpAt(0.25) = %v, want 12.5", got)
	}
}

func TestInterpAtOutsideDomainClamps(t *testing.T) {
	xs := []float64{1, 2}
	ys := []float64{5, 9}
	if got := InterpAt(xs, ys, 0); got != 5 {
		t.Fatalf("left of domain = %v, want 5", got)
	}
	if got := InterpAt(xs, ys, 10); got != 9 {
		t.Fatalf("right of domain = %v, want 9", got)
	}
}

func TestInterpAtDegenerateInputs(t *testing.T) {
	if !math.IsNaN(InterpAt(nil, nil, 1)) {
		t.Fatal("empty input should give NaN")
	}
	if !math.IsNaN(InterpAt([]float64{1, 2}, []float64{1}, 1)) {
		t.Fatal("mismatched input should give NaN")
	}
}

func TestInterpAtLargeGridBinarySearch(t *testing.T) {
	n := 1000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(2 * i)
	}
	for _, x := range []float64{0.5, 123.25, 998.75} {
		if got := InterpAt(xs, ys, x); !almostEqual(got, 2*x, 1e-9) {
			t.Errorf("InterpAt(%v) = %v, want %v", x, got, 2*x)
		}
	}
}

func TestFirstCrossingBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{0, 0.5, 0.5, 1}
	x, ok := FirstCrossing(xs, ys, 0.25)
	if !ok || !almostEqual(x, 1.5, 1e-12) {
		t.Fatalf("crossing 0.25 = %v,%v; want 1.5,true", x, ok)
	}
	x, ok = FirstCrossing(xs, ys, 0.5)
	if !ok || !almostEqual(x, 2, 1e-12) {
		t.Fatalf("crossing 0.5 = %v,%v; want 2,true", x, ok)
	}
	// Level reached on a flat segment: first x achieving it.
	x, ok = FirstCrossing(xs, ys, 0.75)
	if !ok || !almostEqual(x, 3.5, 1e-12) {
		t.Fatalf("crossing 0.75 = %v,%v; want 3.5,true", x, ok)
	}
}

func TestFirstCrossingUnreachable(t *testing.T) {
	if _, ok := FirstCrossing([]float64{0, 1}, []float64{0, 0.4}, 0.5); ok {
		t.Fatal("unreachable level should report false")
	}
}

func TestFirstCrossingAtFirstSample(t *testing.T) {
	x, ok := FirstCrossing([]float64{3, 4}, []float64{0.9, 1}, 0.5)
	if !ok || x != 3 {
		t.Fatalf("level below first sample should return first x, got %v,%v", x, ok)
	}
}

func TestFirstCrossingEmpty(t *testing.T) {
	if _, ok := FirstCrossing(nil, nil, 0.5); ok {
		t.Fatal("empty series should report false")
	}
}

// Property: for any non-decreasing series, InterpAt(FirstCrossing(y)) == y
// whenever the level is strictly inside the value range.
func TestFirstCrossingInterpInverseProperty(t *testing.T) {
	f := func(raw []uint8, levelRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		ys := make([]float64, len(raw))
		acc := 0.0
		for i, r := range raw {
			acc += float64(r)
			ys[i] = acc
		}
		xs := make([]float64, len(ys))
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		sort.Float64s(ys)
		level := ys[0] + (ys[len(ys)-1]-ys[0])*float64(levelRaw%100)/100
		x, ok := FirstCrossing(xs, ys, level)
		if !ok {
			return level > ys[len(ys)-1]
		}
		v := InterpAt(xs, ys, x)
		return v+1e-6 >= level
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeGrid(t *testing.T) {
	g := Range(0.01, 1, 0.01)
	if len(g) != 100 {
		t.Fatalf("analytic p-grid length = %d, want 100", len(g))
	}
	if !almostEqual(g[0], 0.01, 1e-12) || !almostEqual(g[99], 1.0, 1e-9) {
		t.Fatalf("grid endpoints wrong: %v .. %v", g[0], g[99])
	}
	g = Range(20, 140, 20)
	if len(g) != 7 || g[3] != 80 {
		t.Fatalf("density grid wrong: %v", g)
	}
}

func TestRangeDegenerate(t *testing.T) {
	if Range(1, 0, 0.1) != nil {
		t.Fatal("stop < start should give nil")
	}
	if Range(0, 1, 0) != nil {
		t.Fatal("zero step should give nil")
	}
	g := Range(5, 5, 1)
	if len(g) != 1 || g[0] != 5 {
		t.Fatalf("single-point grid wrong: %v", g)
	}
	// A NaN or infinite argument, and a step too fine for the point
	// count to fit in an int32, give nil instead of a panic in make or
	// a one-point grid.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range [][3]float64{
		{0.01, 1, nan}, {nan, 1, 0.01}, {0.01, nan, 0.01},
		{0.01, 1, inf}, {0.01, 1, -inf}, {inf, inf, 0.01},
		{-inf, 1, 0.01}, {0.01, inf, 0.01},
		{1e-300, 1, 1e-300}, {-math.MaxFloat64, math.MaxFloat64, 1},
	} {
		if g := Range(tc[0], tc[1], tc[2]); g != nil {
			t.Errorf("Range(%g, %g, %g) has %d points, want nil", tc[0], tc[1], tc[2], len(g))
		}
	}
}

func TestArgMaxArgMin(t *testing.T) {
	ys := []float64{1, math.NaN(), 5, 2}
	i, v, ok := ArgMax(ys)
	if !ok || i != 2 || v != 5 {
		t.Fatalf("ArgMax = %d,%v,%v", i, v, ok)
	}
	i, v, ok = ArgMin(ys)
	if !ok || i != 0 || v != 1 {
		t.Fatalf("ArgMin = %d,%v,%v", i, v, ok)
	}
}

func TestArgMaxAllNaN(t *testing.T) {
	if _, _, ok := ArgMax([]float64{math.NaN(), math.NaN()}); ok {
		t.Fatal("all-NaN should report not found")
	}
	if _, _, ok := ArgMin(nil); ok {
		t.Fatal("empty should report not found")
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite(1.5) || IsFinite(math.NaN()) || IsFinite(math.Inf(1)) {
		t.Fatal("IsFinite misclassifies")
	}
}

func TestLinearFitExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	m, b, ok := LinearFit(xs, ys)
	if !ok || !almostEqual(m, 2, 1e-12) || !almostEqual(b, 1, 1e-12) {
		t.Fatalf("fit = %v, %v, %v", m, b, ok)
	}
}

func TestLinearFitNoisyData(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0.1, 0.9, 2.1, 2.9, 4.1} // ~ y = x
	m, b, ok := LinearFit(xs, ys)
	if !ok || math.Abs(m-1) > 0.1 || math.Abs(b) > 0.2 {
		t.Fatalf("noisy fit = %v, %v", m, b)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, _, ok := LinearFit([]float64{1}, []float64{1}); ok {
		t.Fatal("single point should fail")
	}
	if _, _, ok := LinearFit([]float64{2, 2}, []float64{1, 5}); ok {
		t.Fatal("vertical data should fail")
	}
	if _, _, ok := LinearFit([]float64{1, 2}, []float64{1}); ok {
		t.Fatal("mismatched lengths should fail")
	}
}

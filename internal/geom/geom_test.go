package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestPointDistances(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if p.Dist(q) != 5 {
		t.Fatalf("Dist = %v, want 5", p.Dist(q))
	}
	if p.Dist2(q) != 25 {
		t.Fatalf("Dist2 = %v, want 25", p.Dist2(q))
	}
	if q.Norm() != 5 {
		t.Fatalf("Norm = %v, want 5", q.Norm())
	}
}

func TestDiskAndAnnulusArea(t *testing.T) {
	if !almostEqual(DiskArea(2), 4*math.Pi, 1e-12) {
		t.Fatal("disk area wrong")
	}
	if DiskArea(-1) != 0 || DiskArea(0) != 0 {
		t.Fatal("non-positive radius should give 0")
	}
	if !almostEqual(AnnulusArea(1, 2), 3*math.Pi, 1e-12) {
		t.Fatal("annulus area wrong")
	}
	if AnnulusArea(2, 1) != 0 {
		t.Fatal("inverted annulus should give 0")
	}
}

func TestLensAreaDisjoint(t *testing.T) {
	if got := LensArea(1, 1, 2.5); got != 0 {
		t.Fatalf("disjoint circles area = %v, want 0", got)
	}
	if got := LensArea(1, 1, 2); got != 0 {
		t.Fatalf("tangent circles area = %v, want 0", got)
	}
}

func TestLensAreaContainment(t *testing.T) {
	if got := LensArea(5, 1, 2); !almostEqual(got, math.Pi, 1e-12) {
		t.Fatalf("contained circle area = %v, want pi", got)
	}
	if got := LensArea(1, 5, 2); !almostEqual(got, math.Pi, 1e-12) {
		t.Fatalf("containing circle area = %v, want pi", got)
	}
	if got := LensArea(3, 3, 0); !almostEqual(got, 9*math.Pi, 1e-12) {
		t.Fatalf("coincident circles area = %v, want 9pi", got)
	}
}

func TestLensAreaEqualCirclesClosedForm(t *testing.T) {
	// Two unit circles at distance d: 2 acos(d/2) - (d/2)·sqrt(4-d²).
	for _, d := range []float64{0.1, 0.5, 1, 1.5, 1.9} {
		want := 2*math.Acos(d/2) - d/2*math.Sqrt(4-d*d)
		got := LensArea(1, 1, d)
		if !almostEqual(got, want, 1e-10) {
			t.Errorf("LensArea(1,1,%v) = %v, want %v", d, got, want)
		}
	}
}

func TestLensAreaNegativeDistance(t *testing.T) {
	if LensArea(1, 1, -0.5) != LensArea(1, 1, 0.5) {
		t.Fatal("lens area should depend on |d|")
	}
}

func TestLensAreaNonPositiveRadius(t *testing.T) {
	if LensArea(0, 1, 0.5) != 0 || LensArea(1, -2, 0.5) != 0 {
		t.Fatal("non-positive radius should give 0 area")
	}
}

// TestLensAreaSymmetricNearTangency pins an input just inside internal
// tangency where the segment formula, evaluated with the radii in
// either order, differed by 1.0e-8.
func TestLensAreaSymmetricNearTangency(t *testing.T) {
	r1, r2, d := 0.1+0.0/100, 0.1+191.0/100, 191.0/100
	if a, b := LensArea(r1, r2, d), LensArea(r2, r1, d); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("LensArea(%g, %g, %g) = %v, swapped %v", r1, r2, d, a, b)
	}
}

// quickConfig fixes the property tests' input stream, so a failure
// reproduces.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

func TestLensAreaSymmetryProperty(t *testing.T) {
	f := func(r1Raw, r2Raw, dRaw uint16) bool {
		r1 := 0.1 + float64(r1Raw%500)/100
		r2 := 0.1 + float64(r2Raw%500)/100
		d := float64(dRaw%1200) / 100
		return almostEqual(LensArea(r1, r2, d), LensArea(r2, r1, d), 1e-9)
	}
	if err := quick.Check(f, quickConfig(0)); err != nil {
		t.Fatal(err)
	}
}

func TestLensAreaMonotoneInDistanceProperty(t *testing.T) {
	f := func(r1Raw, r2Raw, dRaw uint16) bool {
		r1 := 0.1 + float64(r1Raw%500)/100
		r2 := 0.1 + float64(r2Raw%500)/100
		d := float64(dRaw%1000) / 100
		return LensArea(r1, r2, d)+1e-9 >= LensArea(r1, r2, d+0.05)
	}
	if err := quick.Check(f, quickConfig(0)); err != nil {
		t.Fatal(err)
	}
}

func TestLensAreaBoundedProperty(t *testing.T) {
	f := func(r1Raw, r2Raw, dRaw uint16) bool {
		r1 := 0.1 + float64(r1Raw%500)/100
		r2 := 0.1 + float64(r2Raw%500)/100
		d := float64(dRaw%1500) / 100
		a := LensArea(r1, r2, d)
		bound := DiskArea(math.Min(r1, r2))
		return a >= 0 && a <= bound+1e-9
	}
	if err := quick.Check(f, quickConfig(0)); err != nil {
		t.Fatal(err)
	}
}

func TestLensAreaMonteCarlo(t *testing.T) {
	// Independent verification by rejection sampling.
	rng := rand.New(rand.NewSource(7))
	r1, r2, d := 2.0, 1.3, 1.7
	want := LensArea(r1, r2, d)
	const samples = 400000
	hits := 0
	// Sample in the bounding box of circle 2 (centred at (d, 0)).
	for i := 0; i < samples; i++ {
		x := d + (rng.Float64()*2-1)*r2
		y := (rng.Float64()*2 - 1) * r2
		if x*x+y*y <= r1*r1 && (x-d)*(x-d)+y*y <= r2*r2 {
			hits++
		}
	}
	got := float64(hits) / samples * (2 * r2) * (2 * r2)
	if !almostEqual(got, want, 0.05) {
		t.Fatalf("Monte Carlo lens area %v vs analytic %v", got, want)
	}
}

func TestFMatchesLensArea(t *testing.T) {
	// f(D1, D2, x) places the second centre at distance D1 + x.
	if F(2, 1, 0.5) != LensArea(2, 1, 2.5) {
		t.Fatal("F should delegate with d = D1 + x")
	}
	// Negative x: centre inside L1.
	if F(2, 1, -0.5) != LensArea(2, 1, 1.5) {
		t.Fatal("F with negative x wrong")
	}
}

package analytic

import (
	"math"
	"testing"
)

func TestCalibrateLawConstant(t *testing.T) {
	law, err := CalibrateLaw(5, 3, 60, 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Full-grid campaigns put p*·rho between ~12 and ~13.5 for the
	// paper configuration.
	if law.C < 10 || law.C > 16 {
		t.Fatalf("calibrated C = %v, expected ~12-13", law.C)
	}
}

func TestLawPredictsOptimaAcrossDensities(t *testing.T) {
	law, err := CalibrateLaw(5, 3, 60, 5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// At each density, the law's p must achieve nearly the reachability
	// of the true grid optimum.
	for _, rho := range []float64{20, 100, 140} {
		bestR := -1.0
		for p := 0.02; p <= 1; p += 0.02 {
			res, err := Run(Config{P: 5, S: 3, Rho: rho, Prob: p})
			if err != nil {
				t.Fatal(err)
			}
			if r := res.Timeline.ReachabilityAtPhase(5); r > bestR {
				bestR = r
			}
		}
		res, err := Run(Config{P: 5, S: 3, Rho: rho, Prob: law.P(rho)})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Timeline.ReachabilityAtPhase(5)
		if got < bestR-0.03 {
			t.Fatalf("rho=%v: law reach %v vs optimum %v", rho, got, bestR)
		}
	}
}

func TestLawClamping(t *testing.T) {
	law := OptimalProbabilityLaw{C: 12}
	if law.P(6) != 1 {
		t.Fatalf("law should clamp to 1 at low density, got %v", law.P(6))
	}
	if law.P(0) != 1 {
		t.Fatal("non-positive density should default to flooding")
	}
	if p := law.P(1200); math.Abs(p-0.01) > 1e-12 {
		t.Fatalf("law P(1200) = %v, want 0.01", p)
	}
	neg := OptimalProbabilityLaw{C: -1}
	if neg.P(10) != 0 {
		t.Fatal("negative constant should clamp to 0")
	}
}

func TestCalibrateLawBadStep(t *testing.T) {
	if _, err := CalibrateLaw(5, 3, 60, 5, 0); err == nil {
		t.Fatal("zero step should error")
	}
	if _, err := CalibrateLaw(5, 3, 60, 5, 0.9); err == nil {
		t.Fatal("oversized step should error")
	}
}

func TestCalibrateLawPropagatesErrors(t *testing.T) {
	if _, err := CalibrateLaw(0, 3, 60, 5, 0.1); err == nil {
		t.Fatal("invalid model should error")
	}
}

// TestCalibrateLawMatchesFullHorizon pins the law, which CalibrateLaw
// fits on runs stopped at the latency horizon, to the same sweep over
// runs tracked to Run's default horizon.
func TestCalibrateLawMatchesFullHorizon(t *testing.T) {
	const refRho, step = 60, 0.02
	for _, p := range []int{3, 5} {
		for _, s := range []int{1, 3, 5} {
			for _, latency := range []float64{1, 2, 4.5, 5, 7, 10} {
				got, err := CalibrateLaw(p, s, refRho, latency, step)
				if err != nil {
					t.Fatal(err)
				}
				bestP, bestR := math.NaN(), -1.0
				for prob := step; prob <= 1+1e-9; prob += step {
					res, err := Run(Config{P: p, S: s, Rho: refRho, Prob: math.Min(prob, 1)})
					if err != nil {
						t.Fatal(err)
					}
					if r := res.Timeline.ReachabilityAtPhase(latency); r > bestR {
						bestP, bestR = math.Min(prob, 1), r
					}
				}
				want := OptimalProbabilityLaw{C: bestP * refRho, S: s, Latency: latency}
				if got != want {
					t.Errorf("P=%d S=%d L=%g: law %+v, full-horizon sweep %+v", p, s, latency, got, want)
				}
			}
		}
	}
}

// BenchmarkCalibrateLaw times the shootout's PB-law calibration: the
// paper geometry at the reference density, latency 5, step 0.02.
func BenchmarkCalibrateLaw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CalibrateLaw(5, 3, 60, 5, 0.02); err != nil {
			b.Fatal(err)
		}
	}
}

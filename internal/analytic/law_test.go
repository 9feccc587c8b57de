package analytic

import (
	"math"
	"sync"
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
	// Failures are not memoised: a bad step fails on every call.
	for i := 0; i < 3; i++ {
		if _, err := CalibrateLaw(5, 3, 60, 5, 0); err == nil {
			t.Fatalf("call %d: zero step should error", i)
		}
		if _, err := CalibrateLaw(5, 3, 60, 5, 0.9); err == nil {
			t.Fatalf("call %d: oversized step should error", i)
		}
	}
}

// sameLaw compares two laws bit for bit.
func sameLaw(a, b OptimalProbabilityLaw) bool {
	return math.Float64bits(a.C) == math.Float64bits(b.C) && a.S == b.S &&
		math.Float64bits(a.Latency) == math.Float64bits(b.Latency)
}

// TestCalibrateLawMemoMatchesSweep: the memoised law of each argument
// tuple is the fresh sweep's, bit for bit, on the call that fills the
// memo and on the hits after it.
func TestCalibrateLawMemoMatchesSweep(t *testing.T) {
	for _, c := range []struct {
		p, s          int
		latency, step float64
	}{
		{5, 3, 5, 0.02}, {3, 1, 2, 0.05}, {5, 5, 7, 0.1}, {4, 2, 4.5, 0.04},
	} {
		want, err := calibrateLaw(c.p, c.s, 60, c.latency, c.step)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got, err := CalibrateLaw(c.p, c.s, 60, c.latency, c.step)
			if err != nil {
				t.Fatal(err)
			}
			if !sameLaw(got, want) {
				t.Fatalf("%+v call %d: law %+v, fresh sweep %+v", c, i, got, want)
			}
		}
		k := lawKey{c.p, c.s, math.Float64bits(60), math.Float64bits(c.latency), math.Float64bits(c.step)}
		if _, ok := laws.Load(k); !ok {
			t.Fatalf("%+v: no memoised law after three calls", c)
		}
	}
}

// TestCalibrateLawConcurrentFirstCalls: goroutines racing the first
// calibration of one tuple all get the one law the sweep fits.
func TestCalibrateLawConcurrentFirstCalls(t *testing.T) {
	const p, s, refRho, latency, step = 4, 2, 61.5, 3, 0.05
	laws.Delete(lawKey{p, s, math.Float64bits(refRho), math.Float64bits(latency), math.Float64bits(step)})
	want, err := calibrateLaw(p, s, refRho, latency, step)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	got := make([]OptimalProbabilityLaw, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = CalibrateLaw(p, s, refRho, latency, step)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !sameLaw(got[i], want) {
			t.Fatalf("caller %d: law %+v, fresh sweep %+v", i, got[i], want)
		}
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
// paper geometry at the reference density, latency 5, step 0.02. It
// calls the unmemoised sweep, so it times the kernel, not a memo hit.
func BenchmarkCalibrateLaw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := calibrateLaw(5, 3, 60, 5, 0.02); err != nil {
			b.Fatal(err)
		}
	}
}

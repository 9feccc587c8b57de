package experiments

import (
	"fmt"
	"testing"

	"sensornet/internal/engine"
)

// TestRefinedCFMSeedStreams is the regression test for an early bug
// of the refined-CFM study: deriving the per-density deployment RNG
// as seed*104729+int64(rho). Under that scheme every
// density with the same int64 truncation (20.0 and 20.4) shared a
// stream, and the ACK stream ignored rho entirely. The engine
// derivation must give pairwise-distinct seeds across adjacent seeds
// and densities, including fractional densities, and must separate the
// deployment stream from the ACK stream.
func TestRefinedCFMSeedStreams(t *testing.T) {
	rhos := []float64{20, 20.4, 20.5, 21, 40, 60, 80, 100, 120, 140}
	seen := map[int64]string{}
	for seed := int64(0); seed < 5; seed++ {
		for _, rho := range rhos {
			for _, stream := range []string{"refinedcfm-deploy", "refinedcfm-ack"} {
				derived := engine.DeriveSeed(seed, stream, rho)
				key := fmt.Sprintf("%s(seed=%d, rho=%g)", stream, seed, rho)
				if prev, dup := seen[derived]; dup {
					t.Fatalf("derived seed %d collides: %s vs %s", derived, prev, key)
				}
				seen[derived] = key
			}
		}
	}

	// The old affine derivation collided on exactly this pair; pin the
	// counterexample so the bug class stays documented.
	old := func(seed int64, rho float64) int64 { return seed*104729 + int64(rho) }
	if old(1, 20.0) != old(1, 20.4) {
		t.Fatalf("expected the old derivation to collide for rho 20.0 vs 20.4")
	}
	if engine.DeriveSeed(1, "refinedcfm-deploy", 20.0) == engine.DeriveSeed(1, "refinedcfm-deploy", 20.4) {
		t.Fatalf("engine.DeriveSeed must separate rho 20.0 from 20.4")
	}
}

// TestRefinedCFMRuns exercises the experiment end to end on a tiny
// preset: it must fit a cost model and emit one refined-latency sample
// per density, deterministically.
func TestRefinedCFMRuns(t *testing.T) {
	pre := QuickAnalytic()
	pre.Rhos = []float64{20, 40, 60}

	a, err := studyFigure(refinedStudy(pre, 2))
	if err != nil {
		t.Fatalf("refinedStudy: %v", err)
	}
	if got := len(a.Series["refinedLatency"]); got != len(pre.Rhos) {
		t.Fatalf("refinedLatency has %d samples, want %d", got, len(pre.Rhos))
	}
	b, err := studyFigure(refinedStudy(pre, 2))
	if err != nil {
		t.Fatalf("refinedStudy (repeat): %v", err)
	}
	for i := range a.Series["refinedLatency"] {
		if a.Series["refinedLatency"][i] != b.Series["refinedLatency"][i] {
			t.Fatalf("refinedStudy is not deterministic at index %d", i)
		}
	}
}

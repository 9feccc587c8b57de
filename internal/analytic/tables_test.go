package analytic

import (
	"math"
	"testing"
)

// tableEqualityTol is the pinned bound between the table-driven and
// naive evaluations. The table path replays SimpsonN's exact node set
// and accumulation order over precomputed area splits, so in practice
// the two paths agree bit for bit; 1e-12 is the contract the tests
// enforce.
const tableEqualityTol = 1e-12

// tableEqualityConfigs spans the model variants whose integrands the
// geometry table must reproduce: the plain Eq. (4) recursion, the
// Appendix A carrier-sensing variant, the Binomial contention mix, the
// success-rate tracking of Fig. 12, and off-default R / integration
// grids.
func tableEqualityConfigs() map[string]Config {
	return map[string]Config{
		"plain":        {P: 5, S: 3, Rho: 80, Prob: 0.2},
		"flooding":     {P: 5, S: 3, Rho: 140, Prob: 1},
		"carrierSense": {P: 5, S: 3, Rho: 80, Prob: 0.15, CarrierSense: true},
		"binomialMix":  {P: 5, S: 3, Rho: 60, Prob: 0.3, BinomialMix: true},
		"successRate":  {P: 5, S: 3, Rho: 100, Prob: 1, TrackSuccessRate: true},
		"csSuccess": {P: 5, S: 3, Rho: 80, Prob: 0.4, CarrierSense: true,
			TrackSuccessRate: true},
		"oddGrid":  {P: 5, S: 3, Rho: 80, Prob: 0.2, IntegrationPoints: 33},
		"scaledR":  {P: 5, S: 2, Rho: 40, Prob: 0.5, R: 2.5},
		"tinyGrid": {P: 3, S: 3, Rho: 30, Prob: 0.6, IntegrationPoints: 1},
	}
}

func diffWithin(t *testing.T, label string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("%s: NaN mismatch: table %v, naive %v", label, got, want)
	}
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: table %v vs naive %v (diff %g > %g)",
			label, got, want, math.Abs(got-want), tol)
	}
}

// TestGeomTableMatchesNaiveIntegrand pins the table-driven Eq. (4)
// evaluation to the naive per-phase integrand across every model
// variant: identical phase counts and every timeline / ring-recursion /
// success-rate value within 1e-12.
func TestGeomTableMatchesNaiveIntegrand(t *testing.T) {
	for name, cfg := range tableEqualityConfigs() {
		t.Run(name, func(t *testing.T) {
			table, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			naiveCfg := cfg
			naiveCfg.NaiveIntegrand = true
			naive, err := Run(naiveCfg)
			if err != nil {
				t.Fatal(err)
			}

			if table.Phases != naive.Phases {
				t.Fatalf("phase count: table %d, naive %d", table.Phases, naive.Phases)
			}
			diffWithin(t, "N", table.N, naive.N, tableEqualityTol)
			diffWithin(t, "SuccessRate", table.SuccessRate, naive.SuccessRate, tableEqualityTol)

			if len(table.Timeline.Phases) != len(naive.Timeline.Phases) {
				t.Fatalf("timeline length: table %d, naive %d",
					len(table.Timeline.Phases), len(naive.Timeline.Phases))
			}
			for i := range table.Timeline.Phases {
				diffWithin(t, "CumReach", table.Timeline.CumReach[i],
					naive.Timeline.CumReach[i], tableEqualityTol)
				diffWithin(t, "CumBroadcasts", table.Timeline.CumBroadcasts[i],
					naive.Timeline.CumBroadcasts[i], tableEqualityTol)
			}

			if len(table.RingReceived) != len(naive.RingReceived) {
				t.Fatalf("RingReceived length: table %d, naive %d",
					len(table.RingReceived), len(naive.RingReceived))
			}
			for i := range table.RingReceived {
				for j := range table.RingReceived[i] {
					diffWithin(t, "RingReceived", table.RingReceived[i][j],
						naive.RingReceived[i][j], tableEqualityTol)
				}
			}
		})
	}
}

// TestGeomTableBitIdentical asserts the stronger property the table
// construction is designed for: because it replays SimpsonN's exact
// nodes and weight order, the fast path is not merely close but
// bit-identical on the plain and carrier-sense variants.
func TestGeomTableBitIdentical(t *testing.T) {
	for _, cfg := range []Config{
		{P: 5, S: 3, Rho: 80, Prob: 0.2},
		{P: 5, S: 3, Rho: 120, Prob: 0.1, CarrierSense: true},
	} {
		table, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		naiveCfg := cfg
		naiveCfg.NaiveIntegrand = true
		naive, err := Run(naiveCfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range table.Timeline.CumReach {
			if table.Timeline.CumReach[i] != naive.Timeline.CumReach[i] {
				t.Fatalf("CumReach[%d]: table %x, naive %x", i,
					table.Timeline.CumReach[i], naive.Timeline.CumReach[i])
			}
		}
	}
}

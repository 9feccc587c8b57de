package analytic

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"sensornet/internal/geom"
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

// requireBitEqual fails unless two runs agree bit for bit on every
// timeline, ring-recursion and success-rate value.
func requireBitEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Phases != want.Phases || len(got.RingNodes) != len(want.RingNodes) {
		t.Fatalf("%s: %d phases and %d rings, naive %d and %d", label, got.Phases,
			len(got.RingNodes), want.Phases, len(want.RingNodes))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.N, want.N) || !same(got.SuccessRate, want.SuccessRate) {
		t.Fatalf("%s: N %v and success rate %v, naive %v and %v", label, got.N,
			got.SuccessRate, want.N, want.SuccessRate)
	}
	for j := range want.RingNodes {
		if !same(got.RingNodes[j], want.RingNodes[j]) {
			t.Fatalf("%s: RingNodes[%d] = %v, naive %v", label, j, got.RingNodes[j], want.RingNodes[j])
		}
	}
	for i := range want.Timeline.Phases {
		if !same(got.Timeline.CumReach[i], want.Timeline.CumReach[i]) ||
			!same(got.Timeline.CumBroadcasts[i], want.Timeline.CumBroadcasts[i]) {
			t.Fatalf("%s: phase %d reads (%v, %v), naive (%v, %v)", label, i,
				got.Timeline.CumReach[i], got.Timeline.CumBroadcasts[i],
				want.Timeline.CumReach[i], want.Timeline.CumBroadcasts[i])
		}
	}
	for i := range want.RingReceived {
		for j := range want.RingReceived[i] {
			if !same(got.RingReceived[i][j], want.RingReceived[i][j]) {
				t.Fatalf("%s: RingReceived[%d][%d] = %v, naive %v", label, i, j,
					got.RingReceived[i][j], want.RingReceived[i][j])
			}
		}
	}
}

func mustRunNaive(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.NaiveIntegrand = true
	return mustRun(t, cfg)
}

// TestSharedGeomTableKeysEveryInput alternates pairs of configurations
// that differ in one geometry input each, and checks every run against
// its naive integrand. The first of a pair always runs first, so a memo
// key missing that input hands the second run the first one's table and
// fails here whatever else the process has memoised. The second run has
// the larger P: a table built for more rings serves a smaller P's rings
// unchanged, so only the other order would go unnoticed.
func TestSharedGeomTableKeysEveryInput(t *testing.T) {
	base := Config{P: 4, S: 3, Rho: 70, Prob: 0.25, R: 1.75, IntegrationPoints: 40}
	vary := map[string]func(*Config){
		"R":                 func(c *Config) { c.R = 2.25 },
		"IntegrationPoints": func(c *Config) { c.IntegrationPoints = 24 },
		"P":                 func(c *Config) { c.P = 5 },
		"CarrierSense":      func(c *Config) { c.CarrierSense = true },
	}
	for name, change := range vary {
		t.Run(name, func(t *testing.T) {
			other := base
			change(&other)
			pair := []Config{base, other}
			naive := []*Result{mustRunNaive(t, base), mustRunNaive(t, other)}
			for round := 0; round < 4; round++ {
				i := round % 2
				requireBitEqual(t, fmt.Sprintf("%s config %d, round %d", name, i, round),
					mustRun(t, pair[i]), naive[i])
			}
			for _, cfg := range pair {
				cfg.applyDefaults()
				geomMemo.Lock()
				held := geomMemo.tables[geomKeyOf(cfg)] != nil
				geomMemo.Unlock()
				if !held {
					t.Fatalf("memo did not keep the table of %+v; the test checks nothing", cfg)
				}
			}
		})
	}
}

// TestSharedGeomTableNormalisesIntervals checks that interval counts
// SimpsonN rounds to the same even count share one table.
func TestSharedGeomTableNormalisesIntervals(t *testing.T) {
	odd := Config{P: 3, S: 3, Rho: 50, Prob: 0.3, R: 1.25, IntegrationPoints: 27}
	even := odd
	even.IntegrationPoints = 28
	odd.applyDefaults()
	even.applyDefaults()
	rp := geom.RingPartition{R: odd.R, P: odd.P}
	if sharedGeomTable(odd, rp) != sharedGeomTable(even, rp) {
		t.Fatal("27 and 28 intervals are both 28 Simpson intervals, yet got two tables")
	}
}

// TestSharedGeomTableBound runs a geometry larger than the whole memo
// budget: it is built for the run, and the memo neither keeps it nor
// counts it.
func TestSharedGeomTableBound(t *testing.T) {
	cfg := Config{P: 1, S: 3, Rho: 20, Prob: 0.5, IntegrationPoints: geomMemoNodes}
	requireBitEqual(t, "oversized geometry", mustRun(t, cfg), mustRunNaive(t, cfg))
	cfg.applyDefaults()
	geomMemo.Lock()
	defer geomMemo.Unlock()
	if geomMemo.tables[geomKeyOf(cfg)] != nil {
		t.Fatal("memo kept a table larger than its budget")
	}
	if geomMemo.nodes > geomMemoNodes {
		t.Fatalf("memo holds %d nodes, budget %d", geomMemo.nodes, geomMemoNodes)
	}
}

// TestSharedGeomTableConcurrentFirstUse runs one new geometry from
// several goroutines at once; under -race this checks the memo's
// locking, and every run must match the naive integrand.
func TestSharedGeomTableConcurrentFirstUse(t *testing.T) {
	cfg := Config{P: 5, S: 3, Rho: 90, Prob: 0.2, R: 3.5, CarrierSense: true}
	want := mustRunNaive(t, cfg)
	start := make(chan struct{})
	results := make([]*Result, 6)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			res, err := Run(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
		}(g)
	}
	close(start)
	wg.Wait()
	for g, res := range results {
		if res != nil {
			requireBitEqual(t, fmt.Sprintf("goroutine %d", g), res, want)
		}
	}
}

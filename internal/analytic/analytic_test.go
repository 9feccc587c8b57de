package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"sensornet/internal/buckets"
)

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return res
}

func paperConfig(rho, p float64) Config {
	return Config{P: 5, S: 3, Rho: rho, Prob: p}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{P: 0, S: 3, Rho: 20, Prob: 0.1},
		{P: 5, S: 0, Rho: 20, Prob: 0.1},
		{P: 5, S: 3, Rho: 0, Prob: 0.1},
		{P: 5, S: 3, Rho: 20, Prob: -0.1},
		{P: 5, S: 3, Rho: 20, Prob: 1.1},
		{P: 5, S: 3, Rho: 20, Prob: 0.1, R: -1},
		{P: 5, S: 3, Rho: 20, Prob: 0.1, IntegrationPoints: -1},
		// NaN fails every ordered comparison, and +Inf passes a bare
		// lower bound.
		{P: 5, S: 3, Rho: math.NaN(), Prob: 0.1},
		{P: 5, S: 3, Rho: math.Inf(1), Prob: 0.1},
		{P: 5, S: 3, Rho: 20, Prob: math.NaN()},
		{P: 5, S: 3, Rho: 20, Prob: 0.1, R: math.NaN()},
		{P: 5, S: 3, Rho: 20, Prob: 0.1, R: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestRunProducesValidTimeline(t *testing.T) {
	res := mustRun(t, paperConfig(60, 0.2))
	if !res.Timeline.Valid() {
		t.Fatalf("invalid timeline: %+v", res.Timeline)
	}
}

func TestNodeCountMatchesDensity(t *testing.T) {
	res := mustRun(t, paperConfig(40, 0.1))
	if got, want := res.N, 40.0*25; math.Abs(got-want) > 1e-9 {
		t.Fatalf("N = %v, want %v", got, want)
	}
}

func TestPhaseOneReachesFirstRing(t *testing.T) {
	res := mustRun(t, paperConfig(60, 0.5))
	// After phase 1, exactly ring 1 (ρ nodes) plus the source holds
	// the packet: reach = (1 + ρ)/N.
	want := (1 + 60.0) / res.N
	got := res.Timeline.ReachabilityAtPhase(1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("reach@1 = %v, want %v", got, want)
	}
	if got := res.Timeline.CumBroadcasts[1]; got != 1 {
		t.Fatalf("broadcasts@1 = %v, want 1 (the source)", got)
	}
}

func TestZeroProbabilityStopsAfterSource(t *testing.T) {
	res := mustRun(t, paperConfig(60, 0))
	tl := res.Timeline
	if got, want := tl.FinalReachability(), (1+60.0)/res.N; math.Abs(got-want) > 1e-9 {
		t.Fatalf("final reach = %v, want %v", got, want)
	}
	if tl.TotalBroadcasts() != 1 {
		t.Fatalf("total broadcasts = %v, want 1", tl.TotalBroadcasts())
	}
}

func TestFloodingEnergyScalesWithNodes(t *testing.T) {
	// With p = 1 every node that receives broadcasts once, so the total
	// broadcast count approaches the number of reached nodes.
	res := mustRun(t, paperConfig(60, 1))
	tl := res.Timeline
	reached := tl.FinalReachability() * res.N
	if math.Abs(tl.TotalBroadcasts()-reached) > 0.02*reached {
		t.Fatalf("flooding broadcasts %v vs reached %v", tl.TotalBroadcasts(), reached)
	}
}

func TestRingConservationProperty(t *testing.T) {
	// Cumulative receivers per ring never exceed the ring's node count.
	f := func(rhoRaw, pRaw uint8) bool {
		rho := 20 + float64(rhoRaw%120)
		p := 0.05 + float64(pRaw%95)/100
		res, err := Run(paperConfig(rho, p))
		if err != nil {
			return false
		}
		delta := rho / math.Pi
		cum := make([]float64, 6)
		for _, phase := range res.RingReceived {
			for j, v := range phase {
				if v < -1e-9 {
					return false
				}
				cum[j+1] += v
			}
		}
		for j := 1; j <= 5; j++ {
			nodes := delta * math.Pi * float64(2*j-1)
			if cum[j] > nodes*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReachabilityBellCurveAtHighDensity(t *testing.T) {
	// Paper Fig. 4(a): at ρ = 140 the reachability within 5 phases
	// peaks at a small p and collapses for flooding.
	rho := 140.0
	rLow := mustRun(t, paperConfig(rho, 0.01)).Timeline.ReachabilityAtPhase(5)
	rOpt := mustRun(t, paperConfig(rho, 0.1)).Timeline.ReachabilityAtPhase(5)
	rFlood := mustRun(t, paperConfig(rho, 1)).Timeline.ReachabilityAtPhase(5)
	if !(rOpt > rLow && rOpt > rFlood) {
		t.Fatalf("no bell curve: low %v, opt %v, flood %v", rLow, rOpt, rFlood)
	}
	// Fig. 4(b): flooding reaches roughly half of the optimum.
	if ratio := rFlood / rOpt; ratio > 0.75 || ratio < 0.3 {
		t.Fatalf("flooding/optimal reach ratio %v outside plausible band", ratio)
	}
}

func TestOptimalProbabilityDecreasesWithDensity(t *testing.T) {
	// Paper Fig. 4(b): the reachability-maximising p drops as ρ grows.
	best := func(rho float64) float64 {
		bestP, bestR := 0.0, -1.0
		for p := 0.02; p <= 1.0; p += 0.02 {
			r := mustRun(t, paperConfig(rho, p)).Timeline.ReachabilityAtPhase(5)
			if r > bestR {
				bestP, bestR = p, r
			}
		}
		return bestP
	}
	p20 := best(20)
	p140 := best(140)
	if p140 >= p20 {
		t.Fatalf("optimal p should decrease with density: p(20)=%v, p(140)=%v", p20, p140)
	}
	if p140 > 0.2 {
		t.Fatalf("optimal p at rho=140 = %v, expected small", p140)
	}
}

func TestLatencyDualityWithReachability(t *testing.T) {
	// §4.1: metrics 1 and 3 are duals. If reach@5 = R at some p, then
	// latency to R is 5 phases (up to interpolation error).
	res := mustRun(t, paperConfig(60, 0.2))
	r5 := res.Timeline.ReachabilityAtPhase(5)
	lat, ok := res.Timeline.LatencyToReach(r5)
	if !ok {
		t.Fatal("latency to achieved reachability must exist")
	}
	if math.Abs(lat-5) > 1e-6 {
		t.Fatalf("latency duality: lat=%v, want 5", lat)
	}
}

func TestEnergyOptimalProbabilityIsSmall(t *testing.T) {
	// Paper Fig. 6(b): the broadcast count needed for a fixed
	// reachability is minimised by p in (0, 0.1].
	rho := 60.0
	target := 0.72
	bestP, bestB := math.NaN(), math.Inf(1)
	for p := 0.01; p <= 1.0; p += 0.01 {
		res := mustRun(t, paperConfig(rho, p))
		b, ok := res.Timeline.BroadcastsToReach(target)
		if ok && b < bestB {
			bestP, bestB = p, b
		}
	}
	if math.IsNaN(bestP) {
		t.Fatal("no feasible p found")
	}
	if bestP > 0.12 {
		t.Fatalf("energy-optimal p = %v, expected <= ~0.1", bestP)
	}
	// Fig. 6: the optimal broadcast count stays small (paper: within
	// ~40 for its configuration).
	if bestB > 80 {
		t.Fatalf("optimal broadcast count %v unexpectedly large", bestB)
	}
}

func TestBudgetReachabilityFavoursSmallP(t *testing.T) {
	// Paper Fig. 7: with a budget of 35 broadcasts, small p wins big
	// over flooding.
	rho := 100.0
	small := mustRun(t, paperConfig(rho, 0.02)).Timeline.ReachabilityAtBudget(35)
	flood := mustRun(t, paperConfig(rho, 1)).Timeline.ReachabilityAtBudget(35)
	if small <= flood {
		t.Fatalf("budgeted reach: small-p %v should beat flooding %v", small, flood)
	}
	if flood > 0.25 {
		t.Fatalf("flooding under budget = %v, paper expects < ~0.2", flood)
	}
}

func TestCarrierSenseReducesReachability(t *testing.T) {
	// Appendix A: counting interferers in the sensing annulus can only
	// add collisions.
	plain := mustRun(t, paperConfig(60, 0.2)).Timeline.ReachabilityAtPhase(5)
	cfg := paperConfig(60, 0.2)
	cfg.CarrierSense = true
	cs := mustRun(t, cfg).Timeline.ReachabilityAtPhase(5)
	if cs > plain+1e-9 {
		t.Fatalf("carrier sense should not increase reach: %v > %v", cs, plain)
	}
	if cs <= 0 {
		t.Fatalf("carrier-sense run should still make progress, got %v", cs)
	}
}

func TestKModesBroadlyAgree(t *testing.T) {
	base := mustRun(t, paperConfig(60, 0.15)).Timeline.ReachabilityAtPhase(5)
	for _, mode := range []buckets.KMode{buckets.KPoisson, buckets.KRound} {
		cfg := paperConfig(60, 0.15)
		cfg.KMode = mode
		got := mustRun(t, cfg).Timeline.ReachabilityAtPhase(5)
		if math.Abs(got-base) > 0.12 {
			t.Errorf("mode %v diverges: %v vs linear %v", mode, got, base)
		}
	}
}

func TestIntegrationResolutionConverged(t *testing.T) {
	coarse := paperConfig(60, 0.2)
	coarse.IntegrationPoints = 32
	fine := paperConfig(60, 0.2)
	fine.IntegrationPoints = 256
	a := mustRun(t, coarse).Timeline.ReachabilityAtPhase(5)
	b := mustRun(t, fine).Timeline.ReachabilityAtPhase(5)
	if math.Abs(a-b) > 1e-3 {
		t.Fatalf("integration not converged: %v vs %v", a, b)
	}
}

func TestMaxPhasesCapRespected(t *testing.T) {
	cfg := paperConfig(60, 0.1)
	cfg.MaxPhases = 3
	res := mustRun(t, cfg)
	if res.Timeline.Duration() > 3 {
		t.Fatalf("duration %v exceeds cap", res.Timeline.Duration())
	}
}

func TestSuccessRateTracked(t *testing.T) {
	cfg := paperConfig(60, 1)
	cfg.TrackSuccessRate = true
	res := mustRun(t, cfg)
	if !(res.SuccessRate > 0 && res.SuccessRate < 1) {
		t.Fatalf("flooding success rate = %v, want in (0,1)", res.SuccessRate)
	}
	// Dense flooding collides heavily: the success rate must be small.
	if res.SuccessRate > 0.3 {
		t.Fatalf("flooding success rate %v unexpectedly high", res.SuccessRate)
	}
}

func TestSuccessRateDecreasesWithDensity(t *testing.T) {
	rate := func(rho float64) float64 {
		cfg := paperConfig(rho, 1)
		cfg.TrackSuccessRate = true
		return mustRun(t, cfg).SuccessRate
	}
	if !(rate(140) < rate(40)) {
		t.Fatalf("success rate should fall with density: %v vs %v", rate(140), rate(40))
	}
}

func TestSuccessRateNotTrackedByDefault(t *testing.T) {
	res := mustRun(t, paperConfig(60, 1))
	if res.SuccessRate != 0 {
		t.Fatalf("untracked success rate = %v, want 0", res.SuccessRate)
	}
}

func BenchmarkRunRho60(b *testing.B) {
	cfg := paperConfig(60, 0.2)
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunRho140CarrierSense(b *testing.B) {
	cfg := paperConfig(140, 0.1)
	cfg.CarrierSense = true
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBinomialMixMode(t *testing.T) {
	base := paperConfig(60, 0.15)
	mix := paperConfig(60, 0.15)
	mix.BinomialMix = true
	a := mustRun(t, base).Timeline.ReachabilityAtPhase(5)
	b := mustRun(t, mix).Timeline.ReachabilityAtPhase(5)
	if b <= 0 || b > 1 {
		t.Fatalf("binomial-mix reach %v implausible", b)
	}
	// The exact mixture accounts for sender-count variance, which can
	// only soften the mean-field estimate; both must stay in the same
	// regime.
	if math.Abs(a-b) > 0.2 {
		t.Fatalf("binomial mix %v far from mean-field %v", b, a)
	}
}

func TestBinomialMixIgnoredUnderCarrierSense(t *testing.T) {
	cs := paperConfig(60, 0.15)
	cs.CarrierSense = true
	csMix := cs
	csMix.BinomialMix = true
	a := mustRun(t, cs).Timeline.ReachabilityAtPhase(5)
	b := mustRun(t, csMix).Timeline.ReachabilityAtPhase(5)
	if a != b {
		t.Fatalf("BinomialMix should be inert under carrier sense: %v vs %v", a, b)
	}
}

package analytic

import (
	"math"
	"testing"

	"sensornet/internal/buckets"
)

// fuzzConfig maps the fuzzer's arguments onto a valid Config: P in 1–8,
// S in 1–32, R in [0.25, 8.25), IntegrationPoints in 0–64 (0 takes the
// default 64) and p in [0, 1). mode's bits pick the model: bits 0–1 the
// KMode (3 is an unnamed mode, which the kernels read as KLinear), bit 2
// carrier sensing, bit 3 the binomial mix, bit 4 success-rate tracking,
// and bits 5 and 6 force p = 1 and p = 0. ρ reaches 4000, so g(x)·p
// runs past the dense μ rows (K < 1024). The Poisson and binomial
// mixes cost O(ρ) per node on both sides, and the Poisson
// carrier-sensing mix O(ρ²), so those modes draw smaller densities to
// keep an input fast. The bool is false for a non-finite argument.
func fuzzConfig(rings, slots uint8, rho, prob, r float64, points, mode uint8) (Config, bool) {
	for _, v := range []float64{rho, prob, r} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Config{}, false
		}
	}
	cfg := Config{
		P:                 1 + int(rings%8),
		S:                 1 + int(slots%32),
		R:                 0.25 + math.Mod(math.Abs(r), 8),
		Prob:              math.Mod(math.Abs(prob), 1),
		KMode:             buckets.KMode(mode & 3),
		CarrierSense:      mode&4 != 0,
		BinomialMix:       mode&8 != 0,
		TrackSuccessRate:  mode&16 != 0,
		IntegrationPoints: int(points % 65),
	}
	maxRho := 4000.0
	switch {
	case cfg.CarrierSense && cfg.KMode == buckets.KPoisson:
		maxRho = 25
	case cfg.KMode == buckets.KPoisson, cfg.BinomialMix && !cfg.CarrierSense:
		maxRho = 150
	}
	cfg.Rho = math.Mod(math.Abs(rho), maxRho)
	switch {
	case mode&32 != 0:
		cfg.Prob = 1
	case mode&64 != 0:
		cfg.Prob = 0
	}
	return cfg, cfg.Validate() == nil
}

// FuzzAnalyticRun holds the geometry-table kernel to the naive
// integrand, which evaluates Eq. (4) from the geometry at every Simpson
// node: across every model mode, each Run must equal its NaiveIntegrand
// twin bit for bit on every timeline, ring and success-rate value. The
// committed corpus under testdata/fuzz runs in tier 1.
func FuzzAnalyticRun(f *testing.F) {
	f.Add(uint8(4), uint8(2), 80.0, 0.2, 0.75, uint8(0), uint8(0))
	f.Add(uint8(2), uint8(2), 3000.0, 0.0, 0.75, uint8(64), uint8(32))
	f.Add(uint8(4), uint8(2), 80.0, 0.15, 0.75, uint8(0), uint8(4|16))
	f.Fuzz(func(t *testing.T, rings, slots uint8, rho, prob, r float64, points, mode uint8) {
		cfg, ok := fuzzConfig(rings, slots, rho, prob, r, points, mode)
		if !ok {
			t.Skip()
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%+v): %v", cfg, err)
		}
		naive := cfg
		naive.NaiveIntegrand = true
		want, err := Run(naive)
		if err != nil {
			t.Fatalf("naive Run(%+v): %v", cfg, err)
		}
		requireBitEqual(t, "fuzzed config", got, want)
	})
}

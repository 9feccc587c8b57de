package analytic

import (
	"errors"
	"math"
	"sync"
)

// OptimalProbabilityLaw captures an empirical regularity of the
// framework that the paper's Fig. 4(b) hints at: the latency-optimal
// broadcast probability scales almost exactly as p*(ρ) = C/ρ, with C
// depending only on the slot count and the latency budget. Calibrating
// C once (at a reference density) therefore yields a closed-form tuning
// rule for every density — the analytic twin of the Fig. 12
// success-rate trick, and the rationale behind the degree-adaptive
// protocol (each node privately sets p = C/degree).
type OptimalProbabilityLaw struct {
	// C is the calibrated constant: the target expected number of
	// broadcasters per neighbourhood.
	C float64
	// S and Latency record the calibration context.
	S       int
	Latency float64
}

// lawKey identifies one calibration; floats are keyed by their bits,
// so every distinct argument, NaN payloads and -0 included, keys its
// own law.
type lawKey struct {
	p, s                  int
	refRho, latency, step uint64
}

// laws memoises CalibrateLaw per argument tuple. A process calibrates
// a handful of presets, so the map stays small; failures are never
// stored.
var laws sync.Map // lawKey -> OptimalProbabilityLaw

// CalibrateLaw sweeps the broadcast probability at the reference
// density refRho and returns the law fitted through the located
// optimum. The sweep uses the given grid resolution (e.g. 0.01). The
// sweep is deterministic, so its law is kept per argument tuple for
// the life of the process, and later calls return it without sweeping.
func CalibrateLaw(p, s int, refRho, latency, step float64) (OptimalProbabilityLaw, error) {
	k := lawKey{p, s, math.Float64bits(refRho), math.Float64bits(latency), math.Float64bits(step)}
	if law, ok := laws.Load(k); ok {
		return law.(OptimalProbabilityLaw), nil
	}
	law, err := calibrateLaw(p, s, refRho, latency, step)
	if err != nil {
		return OptimalProbabilityLaw{}, err
	}
	stored, _ := laws.LoadOrStore(k, law)
	return stored.(OptimalProbabilityLaw), nil
}

// calibrateLaw is CalibrateLaw's sweep, unmemoised.
func calibrateLaw(p, s int, refRho, latency, step float64) (OptimalProbabilityLaw, error) {
	if step <= 0 || step > 0.5 {
		return OptimalProbabilityLaw{}, errors.New("analytic: bad calibration step")
	}
	// ReachabilityAtPhase(latency) reads no phase past ⌈latency⌉, and a
	// phase depends only on earlier ones, so stopping there leaves the
	// law bit-identical and skips each run's settling tail. A NaN or
	// +Inf latency keeps Run's default horizon.
	maxPhases := 0
	if h := math.Max(1, math.Ceil(latency)); h < defaultMaxPhases {
		maxPhases = int(h)
	}
	bestP, bestR := math.NaN(), -1.0
	for prob := step; prob <= 1+1e-9; prob += step {
		res, err := Run(Config{P: p, S: s, Rho: refRho, Prob: math.Min(prob, 1), MaxPhases: maxPhases})
		if err != nil {
			return OptimalProbabilityLaw{}, err
		}
		if r := res.Timeline.ReachabilityAtPhase(latency); r > bestR {
			bestP, bestR = math.Min(prob, 1), r
		}
	}
	if math.IsNaN(bestP) {
		return OptimalProbabilityLaw{}, errors.New("analytic: calibration found no optimum")
	}
	return OptimalProbabilityLaw{C: bestP * refRho, S: s, Latency: latency}, nil
}

// P returns the law's predicted latency-optimal broadcast probability
// at density rho, clamped to (0, 1].
func (l OptimalProbabilityLaw) P(rho float64) float64 {
	if rho <= 0 {
		return 1
	}
	p := l.C / rho
	if p > 1 {
		return 1
	}
	if p <= 0 {
		return 0
	}
	return p
}

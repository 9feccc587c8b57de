// Package buckets computes the slot-contention success probabilities at
// the heart of the paper's analytical framework.
//
// PB_CAM backoff drops each contending broadcast into one of s uniformly
// random time slots ("buckets"). A receiver decodes a packet iff some
// slot carries exactly one transmission within its range (Assumption 6),
// and — under the Appendix A carrier-sensing extension — additionally no
// transmission from the sensing annulus in that slot.
//
// The package exposes the paper's recursive definition (Eq. 2 and
// Eq. A.1) as a reference oracle, and an exact O(s) inclusion–exclusion
// closed form used in hot loops, together with several real-valued
// extensions for non-integer expected sender counts. The closed form's
// values at small integer arguments are memoised per process (see
// lattice.go), so the hot loops look them up.
package buckets

import (
	"math"

	"sensornet/internal/mathx"
)

// Mu returns μ(K, s): the probability that, when K identical items are
// dropped independently and uniformly into s buckets, at least one
// bucket holds exactly one item. It is the exact inclusion–exclusion
// identity
//
//	μ(K, s) = Σ_{t=1}^{min(K,s)} (-1)^{t+1} C(s,t) · K!/(K-t)! · (s-t)^{K-t} / s^K,
//
// summing over the number t of buckets simultaneously forced to hold
// exactly one item: MuCS(K, 0, s), bit for bit. Values for K < 1024 and
// s <= 32 are read from the slot count's dense row (see MuRow), filled
// once per process. Degenerate arguments (K <= 0 or s <= 0) yield 0.
func Mu(k, s int) float64 {
	if row := MuRow(s); k >= 0 && k < len(row) {
		return row[k]
	}
	return muExact(k, 0, s)
}

// MuRecursive evaluates μ(K, s) with the paper's recursion (Eq. 2),
// conditioning on the number of items landing in the first bucket. It is
// exponentially slower than Mu and exists as the property-test oracle
// for it. Results are memoised per call tree.
func MuRecursive(k, s int) float64 {
	memo := make(map[[2]int]float64)
	return muRec(k, s, memo)
}

func muRec(k, s int, memo map[[2]int]float64) float64 {
	if k <= 0 || s <= 0 {
		return 0
	}
	if k == 1 {
		return 1
	}
	if s == 1 {
		return 0 // k >= 2 items all share the single bucket
	}
	key := [2]int{k, s}
	if v, ok := memo[key]; ok {
		return v
	}
	// Condition on i = number of items in the first bucket.
	// i == 1 succeeds outright; otherwise recurse on the remaining
	// k-i items and s-1 buckets.
	logInv := -math.Log(float64(s))
	logRest := math.Log(float64(s-1)) - math.Log(float64(s))
	sum := 0.0
	for i := 0; i <= k; i++ {
		p := math.Exp(mathx.LogBinomial(k, i) + float64(i)*logInv + float64(k-i)*logRest)
		if i == 1 {
			sum += p
		} else {
			sum += p * muRec(k-i, s-1, memo)
		}
	}
	memo[key] = sum
	return sum
}

// KMode selects how real-valued expected sender counts are mapped onto
// the integer-argument μ.
type KMode int

const (
	// KLinear interpolates μ linearly between ⌊K⌋ and ⌈K⌉ (default:
	// the smoothest faithful reading of the paper's μ(g(x)·p, s)).
	KLinear KMode = iota
	// KPoisson treats the sender count as Poisson with mean K and
	// mixes μ over it.
	KPoisson
	// KRound evaluates μ at the nearest integer.
	KRound
)

// String implements fmt.Stringer for diagnostics and bench labels.
func (m KMode) String() string {
	switch m {
	case KLinear:
		return "linear"
	case KPoisson:
		return "poisson"
	case KRound:
		return "round"
	default:
		return "unknown"
	}
}

// poissonTailCut bounds the Poisson mixture truncation error.
const poissonTailCut = 1e-12

// MuReal evaluates μ at a real-valued expected item count k using the
// chosen mode. Negative k yields 0.
func MuReal(k float64, s int, mode KMode) float64 {
	if k <= 0 || s <= 0 {
		return 0
	}
	switch mode {
	case KPoisson:
		return muPoisson(k, s)
	case KRound:
		return Mu(int(math.Round(k)), s)
	default:
		if v, ok := LerpRow(MuRow(s), k); ok {
			return v
		}
		lo := int(math.Floor(k))
		hi := lo + 1
		t := k - float64(lo)
		if t == 0 {
			return Mu(lo, s)
		}
		return mathx.Lerp(Mu(lo, s), Mu(hi, s), t)
	}
}

func muPoisson(lambda float64, s int) float64 {
	// Mix over the Poisson sender count; truncate once the remaining
	// tail mass cannot move the result by poissonTailCut.
	sum, mass := 0.0, 0.0
	limit := int(lambda + 12*math.Sqrt(lambda) + 20)
	for k := 0; k <= limit; k++ {
		p := mathx.PoissonPMF(lambda, k)
		mass += p
		if k >= 1 {
			sum += p * Mu(k, s)
		}
		if mass > 1-poissonTailCut && k > int(lambda) {
			break
		}
	}
	return mathx.Clamp(sum, 0, 1)
}

// MuBinomial mixes μ over a Binomial(n, p) sender count: the exact law
// of the number of broadcasters among n candidate senders that each
// transmit with probability p. It is the most literal reading of PB_CAM
// contention and is exposed for ablation against MuReal.
func MuBinomial(n int, p float64, s int) float64 {
	if n <= 0 || p <= 0 || s <= 0 {
		return 0
	}
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += mathx.BinomialPMF(n, p, k) * Mu(k, s)
	}
	return mathx.Clamp(sum, 0, 1)
}

// ExpectedSingletons returns the expected number of buckets holding
// exactly one item when k items (real-valued, treated as the binomial
// mean) are dropped into s buckets: k · ((s-1)/s)^(k-1). This drives the
// flooding success-rate model behind Fig. 12.
func ExpectedSingletons(k float64, s int) float64 {
	if k <= 0 || s <= 0 {
		return 0
	}
	if s == 1 {
		if k <= 1 {
			return k
		}
		return 0
	}
	return k * math.Pow(float64(s-1)/float64(s), k-1)
}

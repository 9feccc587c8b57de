package buckets

import (
	"math"
	"sync/atomic"

	"sensornet/internal/mathx"
)

// muExact evaluates μ'(K1, K2, s) with the exact inclusion–exclusion sum
// documented on MuCS. Its K2 = 0 column is μ(K, s): every term then
// reduces to Mu's formula, so both kernels share this one loop.
func muExact(k1, k2, s int) float64 {
	if k1 <= 0 || k2 < 0 || s <= 0 {
		return 0
	}
	if k1 == 1 && k2 == 0 {
		return 1
	}
	logS := math.Log(float64(s))
	total := k1 + k2
	tMax := min(k1, s)
	sum := 0.0
	for t := 1; t <= tMax; t++ {
		var logTerm float64
		if s == t {
			if total != t { // 0^(K1+K2-t) vanishes unless exponent is 0
				continue
			}
			logTerm = mathx.LogBinomial(s, t) + mathx.LogFallingFactorial(k1, t) -
				float64(total)*logS
		} else {
			logTerm = mathx.LogBinomial(s, t) + mathx.LogFallingFactorial(k1, t) +
				float64(total-t)*math.Log(float64(s-t)) - float64(total)*logS
		}
		term := math.Exp(logTerm)
		if t%2 == 1 {
			sum += term
		} else {
			sum -= term
		}
	}
	return mathx.Clamp(sum, 0, 1)
}

// lattice memoises muExact on the integer box 0 <= k1 < n1,
// 0 <= k2 < n2, 1 <= s < len(slabs); arguments outside it are computed
// by muExact on every call. A slot count's slab of n1·n2 words is
// allocated on its first lookup and each entry is computed on its own,
// so a lattice holds at most (len(slabs)-1)·n1·n2·8 bytes. Because the
// stored bits are muExact's, a lookup is bit-identical to the exact
// kernel.
//
// Lookups are safe from any number of goroutines. A word holds its
// value's bits plus one, so the zero word marks an entry not computed
// yet; goroutines that meet one at once each compute the same bits and
// store them.
type lattice struct {
	n1, n2 int
	slabs  []atomic.Pointer[[]atomic.Uint64] // indexed by s; slabs[0] unused
}

func newLattice(n1, n2, maxS int) *lattice {
	return &lattice{n1: n1, n2: n2, slabs: make([]atomic.Pointer[[]atomic.Uint64], maxS+1)}
}

// at returns muExact(k1, k2, s).
func (l *lattice) at(k1, k2, s int) float64 {
	if k1 < 0 || k1 >= l.n1 || k2 < 0 || k2 >= l.n2 || s < 1 || s >= len(l.slabs) {
		return muExact(k1, k2, s)
	}
	slab := l.slabs[s].Load()
	if slab == nil {
		fresh := make([]atomic.Uint64, l.n1*l.n2)
		l.slabs[s].CompareAndSwap(nil, &fresh)
		slab = l.slabs[s].Load()
	}
	e := &(*slab)[k1*l.n2+k2]
	if w := e.Load(); w != 0 {
		return math.Float64frombits(w - 1)
	}
	v := muExact(k1, k2, s)
	e.Store(math.Float64bits(v) + 1)
	return v
}

// The process-wide lattices behind Mu and MuCS. Their bounds cover the
// paper's regime with room to spare: at paper presets (ρ <= 140,
// s <= 12) the analytic figures evaluate μ at K <= 114, and μ' at
// K1 <= 55, K2 <= 99 (at s = 3, the only slot count run with carrier
// sensing).
var (
	// muLattice holds μ(K, s) for K < 1024 and s <= 32: at most 256 KiB.
	muLattice = newLattice(1024, 1, 32)
	// csLattice holds μ'(K1, K2, s) for K1 < 128, K2 < 256 and s <= 16:
	// 256 KiB per slot count in use, at most 4 MiB.
	csLattice = newLattice(128, 256, 16)
)

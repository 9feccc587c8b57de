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

// muRowLen is the length of a dense μ row: μ(K, s) for 0 <= K < 1024.
const muRowLen = 1024

// muRows holds μ(K, s) for 0 <= K < muRowLen and 1 <= s < len(muRows),
// one dense row per slot count (index 0 unused). A row is filled with
// muExact's bits the first time its slot count is looked up and
// published whole: goroutines that meet an empty slot at once each
// fill a row, and the first compare-and-swap wins. So a published row
// is complete, never written again, and bit-identical to the exact
// kernel.
type muRows [33]atomic.Pointer[[muRowLen]float64]

// row returns the μ row of slot count s, or nil when s has none.
func (r *muRows) row(s int) []float64 {
	if s < 1 || s >= len(r) {
		return nil
	}
	if p := r[s].Load(); p != nil {
		return p[:]
	}
	return r.fill(s)
}

// fill computes slot count s's row and publishes it unless another
// goroutine got there first.
func (r *muRows) fill(s int) []float64 {
	row := new([muRowLen]float64)
	for k := range row {
		row[k] = muExact(k, 0, s)
	}
	r[s].CompareAndSwap(nil, row)
	return r[s].Load()[:]
}

// MuRow returns the dense row μ(0..1023, s) when s <= 32, and nil
// otherwise. The row is shared and must not be written.
func MuRow(s int) []float64 {
	return muRowTable.row(s)
}

// LerpRow evaluates μ at a real-valued item count k by linear
// interpolation in row, a MuRow result: it is MuReal(k, s, KLinear) for
// the row's s wherever it reports ok. k <= 0 yields 0; 0 < k < len-1
// interpolates between the entries at ⌊k⌋ and ⌊k⌋+1; any other k
// (past the row, or NaN) is a miss, which MuReal computes. An integer k
// reads its entry exactly: the interpolant adds (b-a)·0 = ±0 to it, and
// no entry is -0.
func LerpRow(row []float64, k float64) (float64, bool) {
	if k <= 0 {
		return 0, true
	}
	if k < float64(len(row)-1) {
		lo := int(k)
		return mathx.Lerp(row[lo], row[lo+1], k-float64(lo)), true
	}
	return 0, false
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

// The process-wide tables behind Mu and MuCS. Their bounds cover the
// paper's regime with room to spare: at paper presets (ρ <= 140,
// s <= 12) the analytic figures evaluate μ at K <= 114, and μ' at
// K1 <= 55, K2 <= 99 (at s = 3, the only slot count run with carrier
// sensing).
var (
	// muRowTable holds μ(K, s) for K < 1024 and s <= 32: 8 KiB per
	// slot count in use, at most 256 KiB. A row takes 0.1 ms to fill at
	// s = 3 and 1.6 ms at s = 32 on a 2-vCPU Xeon, once per process.
	muRowTable muRows
	// csLattice holds μ'(K1, K2, s) for K1 < 128, K2 < 256 and s <= 16:
	// 256 KiB per slot count in use, at most 4 MiB. Its entries fill one
	// at a time: a full slab costs 32K exact sums, and a carrier-sensing
	// run reads a few hundred of them.
	csLattice = newLattice(128, 256, 16)
)

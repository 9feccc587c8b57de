package analytic

import (
	"math"
	"sync"

	"sensornet/internal/buckets"
	"sensornet/internal/geom"
)

// geomTable caches the phase-invariant geometry of a Run. The Eq. (4)
// integrand evaluates rp.TransmissionAreas (and, under carrier sensing,
// rp.CarrierSenseAreas) at every Simpson node of every ring in every
// phase, yet those area splits depend only on (ring, node offset) — the
// lens-intersection trigonometry is identical across phases, and across
// runs that differ only in ρ, p, s or the μ mode. The table evaluates
// the whole (ring j, Simpson node x_i) lattice once per geometry (see
// sharedGeomTable); each phase's integral then reduces to a dot product
// of the cached area vectors with the fresh-receiver densities plus one
// μ evaluation per node. A table is never written after it is built.
//
// Summation follows mathx.SimpsonN exactly — same nodes (x_0 = 0,
// x_n = R exactly, interior x_i = i·h), same weight application order —
// so the table-driven path is bit-identical to the naive integrand it
// replaces (Config.NaiveIntegrand keeps the reference path; the
// equality tests pin the two together).
type geomTable struct {
	n int     // Simpson subintervals (even, >= 2)
	h float64 // node spacing R/n

	// Per ring j (row j-1), per node i in 0..n:
	radial [][]float64    // cfg.R·(j-1) + x_i, the integrand's radial factor
	tx     [][][3]float64 // rp.TransmissionAreas(j, x_i), 0 for rings 0 and P+1
	cs     [][][5]float64 // rp.CarrierSenseAreas(j, x_i); nil unless carrier sensing
}

// simpsonIntervals mirrors mathx.SimpsonN's normalisation of the
// subinterval count, so table nodes land exactly on the quadrature's.
func simpsonIntervals(n int) int {
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	return n
}

// newGeomTable precomputes the geometry lattice for one configuration.
func newGeomTable(cfg Config, rp geom.RingPartition) *geomTable {
	n := simpsonIntervals(cfg.IntegrationPoints)
	t := &geomTable{
		n:      n,
		h:      cfg.R / float64(n),
		radial: make([][]float64, cfg.P),
		tx:     make([][][3]float64, cfg.P),
	}
	if cfg.CarrierSense {
		t.cs = make([][][5]float64, cfg.P)
	}
	for j := 1; j <= cfg.P; j++ {
		radial := make([]float64, n+1)
		tx := make([][3]float64, n+1)
		var cs [][5]float64
		if cfg.CarrierSense {
			cs = make([][5]float64, n+1)
		}
		for i := 0; i <= n; i++ {
			x := t.node(i, cfg.R)
			radial[i] = cfg.R*float64(j-1) + x
			tx[i] = rp.TransmissionAreas(j, x)
			// Rings 0 and P+1 lie outside the field. Zero areas there let
			// fillLinear sum all three neighbours without a bounds test.
			if j == 1 {
				tx[i][0] = 0
			}
			if j == cfg.P {
				tx[i][2] = 0
			}
			if cs != nil {
				cs[i] = rp.CarrierSenseAreas(j, x)
			}
		}
		t.radial[j-1] = radial
		t.tx[j-1] = tx
		if cs != nil {
			t.cs[j-1] = cs
		}
	}
	return t
}

// geomKey is every input newGeomTable reads.
type geomKey struct {
	r            uint64 // math.Float64bits(cfg.R)
	p            int
	n            int // simpsonIntervals(cfg.IntegrationPoints)
	carrierSense bool
}

func geomKeyOf(cfg Config) geomKey {
	return geomKey{r: math.Float64bits(cfg.R), p: cfg.P,
		n: simpsonIntervals(cfg.IntegrationPoints), carrierSense: cfg.CarrierSense}
}

// geomMemoNodes bounds the process-wide geometry memo by lattice nodes,
// one per ring and Simpson node. A node holds at most 72 bytes (its
// radial factor and 3 + 5 areas), so the memo holds at most 2.25 MiB of
// lattice data. The paper geometry (P = 5, 64 intervals) is 325 nodes.
const geomMemoNodes = 1 << 15

// geomMemo holds the geometry tables of this process, keyed by every
// input they depend on. It keeps the tables it meets first until they
// fill geomMemoNodes; a geometry past that is built per Run.
var geomMemo = struct {
	sync.Mutex
	tables map[geomKey]*geomTable
	nodes  int
}{tables: make(map[geomKey]*geomTable)}

// sharedGeomTable returns the geometry table of cfg (defaults applied),
// building it on first use.
func sharedGeomTable(cfg Config, rp geom.RingPartition) *geomTable {
	key := geomKeyOf(cfg)
	geomMemo.Lock()
	t := geomMemo.tables[key]
	geomMemo.Unlock()
	if t != nil {
		return t
	}
	t = newGeomTable(cfg, rp)
	nodes := cfg.P * (t.n + 1)
	geomMemo.Lock()
	defer geomMemo.Unlock()
	if old := geomMemo.tables[key]; old != nil {
		return old
	}
	if geomMemo.nodes+nodes <= geomMemoNodes {
		geomMemo.tables[key] = t
		geomMemo.nodes += nodes
	}
	return t
}

// node returns Simpson node i exactly as SimpsonN visits it: the
// endpoints are the exact interval bounds, interior nodes are a + i·h.
func (t *geomTable) node(i int, r float64) float64 {
	switch i {
	case 0:
		return 0
	case t.n:
		return r
	default:
		return float64(i) * t.h
	}
}

// freshAt computes g(x_i) for a node in ring j: the dot product of the
// cached transmission-area split with the fresh-receiver densities, in
// the same accumulation order as expectedFresh.
func (t *geomTable) freshAt(p int, fresh []float64, j, i int) float64 {
	a := &t.tx[j-1][i]
	g := 0.0
	for d := 0; d < 3; d++ {
		k := j - 1 + d
		if k >= 1 && k <= p {
			g += fresh[k] * a[d]
		}
	}
	return g
}

// freshAnnulusAt computes h(x_i) from the cached carrier-sense annulus
// split, mirroring expectedFreshAnnulus.
func (t *geomTable) freshAnnulusAt(p int, fresh []float64, j, i int) float64 {
	b := &t.cs[j-1][i]
	h := 0.0
	for d := 0; d < 5; d++ {
		k := j - 2 + d
		if k >= 1 && k <= p {
			h += fresh[k] * b[d]
		}
	}
	return h
}

// successAt evaluates the Eq. (4) success probability at lattice node
// (j, i) for the current phase's fresh densities. binom memoises the
// binomial mix for the Run; it is only read under BinomialMix.
func (t *geomTable) successAt(cfg *Config, fresh []float64, j, i int, binom binomialMemo) float64 {
	g := t.freshAt(cfg.P, fresh, j, i)
	switch {
	case cfg.CarrierSense:
		h := t.freshAnnulusAt(cfg.P, fresh, j, i)
		return buckets.MuCSReal(g*cfg.Prob, h*cfg.Prob, cfg.S, cfg.KMode)
	case cfg.BinomialMix:
		return binom.at(int(math.Round(g)), cfg.Prob, cfg.S)
	default:
		return buckets.MuReal(g*cfg.Prob, cfg.S, cfg.KMode)
	}
}

// binomialMemo holds buckets.MuBinomial(n, p, s) by n for one Run. p and
// s are fixed for a Run, and n = round(g(x)) repeats across its nodes
// and phases, while each MuBinomial call builds an n-term PMF.
type binomialMemo map[int]float64

func (m binomialMemo) at(n int, p float64, s int) float64 {
	v, ok := m[n]
	if !ok {
		v = buckets.MuBinomial(n, p, s)
		m[n] = v
	}
	return v
}

// phaseIntegral evaluates ring j's Eq. (4) integral for one phase from
// the cached lattice in two stages: it fills succ with the success
// probability at each of the ring's n+1 nodes, then runs SimpsonN's
// exact accumulation over them. succ holds at least n+1 values.
func (t *geomTable) phaseIntegral(cfg *Config, fresh []float64, j int, succ []float64, binom binomialMemo) float64 {
	succ = succ[:t.n+1]
	if cfg.KMode == buckets.KLinear && !cfg.CarrierSense && !cfg.BinomialMix {
		t.fillLinear(cfg, fresh, j, succ)
	} else {
		for i := range succ {
			succ[i] = t.successAt(cfg, fresh, j, i, binom)
		}
	}
	radial := t.radial[j-1]
	sum := radial[0]*succ[0] + radial[t.n]*succ[t.n]
	for i := 1; i < t.n; i++ {
		v := radial[i] * succ[i]
		if i%2 == 1 {
			sum += 4 * v
		} else {
			sum += 2 * v
		}
	}
	return sum * t.h / 3
}

// fillLinear is successAt's default mode (KLinear, no carrier sensing,
// no binomial mix) in one loop without calls. g(x_i) sums all three
// neighbouring rings: outside the field both the density and the area
// are 0, so each term freshAt skips adds +0 to a non-negative sum and
// leaves its bits. μ(g·p, s) then interpolates in the slot count's
// dense row; a miss past the row takes MuReal's path.
func (t *geomTable) fillLinear(cfg *Config, fresh []float64, j int, succ []float64) {
	row, p := buckets.MuRow(cfg.S), cfg.Prob
	f0, f1, f2 := fresh[j-1], fresh[j], fresh[j+1]
	tx := t.tx[j-1][:len(succ)]
	for i := range succ {
		a := &tx[i]
		k := (f0*a[0] + f1*a[1] + f2*a[2]) * p
		v, ok := buckets.LerpRow(row, k)
		if !ok {
			v = buckets.MuReal(k, cfg.S, buckets.KLinear)
		}
		succ[i] = v
	}
}

// successRate accumulates one phase of the Fig. 12 success-rate model
// from the cached lattice: per ring, the singleton-slot and opportunity
// integrals share the g(x_i) dot products. Each integral reproduces
// successRateContribution's SimpsonN evaluation bit for bit.
func (t *geomTable) successRate(cfg *Config, deltaRing, fresh []float64) (succ, opp float64) {
	for j := 1; j <= cfg.P; j++ {
		radial := t.radial[j-1]
		kv := func(i int) float64 { return t.freshAt(cfg.P, fresh, j, i) * cfg.Prob }
		k0, kn := kv(0), kv(t.n)
		sumS := radial[0]*buckets.ExpectedSingletons(k0, cfg.S) +
			radial[t.n]*buckets.ExpectedSingletons(kn, cfg.S)
		sumO := radial[0]*k0 + radial[t.n]*kn
		for i := 1; i < t.n; i++ {
			k := kv(i)
			vS := radial[i] * buckets.ExpectedSingletons(k, cfg.S)
			vO := radial[i] * k
			if i%2 == 1 {
				sumS += 4 * vS
				sumO += 4 * vO
			} else {
				sumS += 2 * vS
				sumO += 2 * vO
			}
		}
		succ += 2 * math.Pi * deltaRing[j] * (sumS * t.h / 3)
		opp += 2 * math.Pi * deltaRing[j] * (sumO * t.h / 3)
	}
	return succ, opp
}

// Package analytic implements the paper's analytical framework for
// probability-based broadcasting under the Collision Aware Model
// (§4.2.2 and Appendix A).
//
// The deployment disk of radius P·r is split into P concentric rings of
// width r. The engine tracks n_j^i — the expected number of nodes in
// ring j that first receive the packet during time phase i — through the
// recursion of Eq. (4): a node at distance x inside ring j hears an
// expected g(x) freshly-informed neighbours, of which a fraction p
// broadcast in the next phase, each in one of s random slots; the
// probability that at least one slot carries exactly one in-range
// transmission is μ(g(x)·p, s). With carrier sensing enabled the
// Appendix A variant μ'(g(x)·p, h(x)·p, s) is used, where h(x) counts
// potential interferers in the sensing annulus.
package analytic

import (
	"errors"
	"fmt"
	"math"

	"sensornet/internal/buckets"
	"sensornet/internal/geom"
	"sensornet/internal/metrics"
)

// Config parameterises one analytic evaluation of PB_CAM.
type Config struct {
	// P is the number of rings; the field has radius P·r (paper: 5).
	P int
	// S is the number of slots per time phase (paper: 3).
	S int
	// Rho is the node density expressed as the expected number of
	// neighbours per node, ρ = δπr² (paper: 20..140).
	Rho float64
	// R is the transmission radius. The model is scale-free in R; it
	// defaults to 1.
	R float64
	// Prob is the broadcast probability p of PB_CAM. Prob = 1 is
	// simple flooding in CAM.
	Prob float64
	// KMode selects the real-valued extension of μ (default KLinear).
	KMode buckets.KMode
	// BinomialMix evaluates the success probability as the exact
	// Binomial(round(g(x)), p) mixture over sender counts instead of
	// μ at the expected count g(x)·p — the most literal reading of
	// PB_CAM contention, exposed for ablation. Ignored under
	// CarrierSense.
	BinomialMix bool
	// CarrierSense enables the Appendix A collision model, in which
	// concurrent transmissions within twice the transmission radius
	// of the receiver also destroy reception.
	CarrierSense bool
	// IntegrationPoints is the number of Simpson subintervals per ring
	// for the Eq. (4) integral (default 64).
	IntegrationPoints int
	// MaxPhases caps the tracked execution length (default 64).
	MaxPhases int
	// TrackSuccessRate additionally accumulates the broadcast success
	// rate model used by Fig. 12.
	TrackSuccessRate bool
	// NaiveIntegrand evaluates the Eq. (4) integrand directly at every
	// Simpson node of every phase instead of reading the phase-invariant
	// geometry lattice, which is built once per geometry. The two paths
	// are bit-identical (the equality regression tests pin them
	// together); the naive path exists as that reference and for
	// profiling the table speedup.
	NaiveIntegrand bool
}

// defaultMaxPhases is the execution length Run tracks when
// Config.MaxPhases is unset.
const defaultMaxPhases = 64

// epsilon terminates the recursion once the expected number of new
// receivers in a phase falls below it.
const epsilon = 1e-9

func (c *Config) applyDefaults() {
	//lint:ignore floateq exact zero is the "unset" sentinel for config fields, not a computed value
	if c.R == 0 {
		c.R = 1
	}
	if c.IntegrationPoints == 0 {
		c.IntegrationPoints = 64
	}
	if c.MaxPhases == 0 {
		c.MaxPhases = defaultMaxPhases
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.P < 1:
		return errors.New("analytic: P must be >= 1")
	case c.S < 1:
		return errors.New("analytic: S must be >= 1")
	case c.Rho <= 0:
		return errors.New("analytic: Rho must be > 0")
	case c.R < 0:
		return errors.New("analytic: R must be >= 0")
	case c.Prob < 0 || c.Prob > 1:
		return fmt.Errorf("analytic: Prob %v outside [0,1]", c.Prob)
	case c.IntegrationPoints < 0:
		return errors.New("analytic: IntegrationPoints must be >= 0")
	default:
		return nil
	}
}

// Result is the outcome of one analytic evaluation.
type Result struct {
	// Timeline carries the cumulative reachability and broadcast-count
	// series used for all four performance metrics.
	Timeline metrics.Timeline
	// RingReceived[i][j-1] is n_j^{i+1}: expected first-time receivers
	// in ring j during phase i+1.
	RingReceived [][]float64
	// RingNodes[j-1] is the expected node population of ring j.
	RingNodes []float64
	// N is the expected total node count δπ(Pr)² (= ρP²).
	N float64
	// Phases is the number of phases until termination.
	Phases int
	// SuccessRate is the opportunity-weighted mean broadcast success
	// rate (only populated when Config.TrackSuccessRate is set).
	SuccessRate float64
}

// Run evaluates the analytical model. It returns an error only for
// invalid configurations; a p = 0 run is valid and reaches nobody beyond
// ring 1... nobody at all beyond the source broadcast's first ring.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()

	rp := geom.RingPartition{R: cfg.R, P: cfg.P}
	delta := cfg.Rho / (math.Pi * cfg.R * cfg.R) // node density per unit area
	n := cfg.Rho * float64(cfg.P) * float64(cfg.P)

	ringArea := make([]float64, cfg.P+1) // 1-indexed
	ringNodes := make([]float64, cfg.P+1)
	for j := 1; j <= cfg.P; j++ {
		ringArea[j] = rp.RingArea(j)
		ringNodes[j] = delta * ringArea[j]
	}
	// Per-ring density of all nodes, for the success-rate model.
	deltaRing := make([]float64, cfg.P+1)
	for j := 1; j <= cfg.P; j++ {
		if ringArea[j] > 0 {
			deltaRing[j] = ringNodes[j] / ringArea[j]
		}
	}

	// recv[j]: cumulative expected receivers in ring j;
	// lastNew[j]: receivers during the previous phase (the broadcasters
	// of the current phase, after thinning by p).
	recv := make([]float64, cfg.P+2)
	lastNew := make([]float64, cfg.P+2)

	res := &Result{N: n}
	res.RingNodes = append(res.RingNodes, ringNodes[1:cfg.P+1]...)
	tl := &res.Timeline
	tl.N = n
	appendSample := func(phase float64, reached, broadcasts float64) {
		tl.Phases = append(tl.Phases, phase)
		tl.CumReach = append(tl.CumReach, reached/n)
		tl.CumBroadcasts = append(tl.CumBroadcasts, broadcasts)
	}

	// Phase 0 anchor: only the source holds the packet.
	appendSample(0, 1, 0)

	// Phase 1: the source broadcasts alone; every node in ring 1
	// receives (n_1^1 = δπr² = ρ).
	recv[1] = ringNodes[1]
	lastNew[1] = ringNodes[1]
	res.RingReceived = append(res.RingReceived, snapshotRings(lastNew, cfg.P))
	totalRecv := ringNodes[1]
	totalBroadcasts := 1.0
	appendSample(1, 1+totalRecv, totalBroadcasts)

	var succWeighted, oppWeighted float64

	// The phase-invariant geometry lattice, shared by every Run of the
	// same geometry (see tables.go), plus the per-phase scratch hoisted
	// out of the loop so the recursion's steady state allocates nothing
	// per phase beyond its result rows.
	var tab *geomTable
	if !cfg.NaiveIntegrand {
		tab = sharedGeomTable(cfg, rp)
	}
	// The table path's node values. The default 64 Simpson intervals
	// have 65 nodes, which fit on the stack.
	var nodeBuf [65]float64
	succ := nodeBuf[:]
	if tab != nil && tab.n+1 > len(succ) {
		succ = make([]float64, tab.n+1)
	}
	var binom binomialMemo
	if cfg.BinomialMix {
		binom = binomialMemo{}
	}
	freshDensity := make([]float64, cfg.P+2)
	newRecv := make([]float64, cfg.P+1)

	for phase := 2; phase <= cfg.MaxPhases; phase++ {
		// Broadcasters this phase: last phase's fresh receivers,
		// thinned by p.
		broadcasters := 0.0
		for j := 1; j <= cfg.P; j++ {
			broadcasters += lastNew[j] * cfg.Prob
		}
		totalBroadcasts += broadcasters
		if broadcasters <= epsilon {
			appendSample(float64(phase), 1+totalRecv, totalBroadcasts)
			break
		}

		// Density of fresh receivers per ring, for g(x) and h(x).
		for j := range freshDensity {
			freshDensity[j] = 0
		}
		for j := 1; j <= cfg.P; j++ {
			if ringArea[j] > 0 {
				freshDensity[j] = lastNew[j] / ringArea[j]
			}
		}

		for j := range newRecv {
			newRecv[j] = 0
		}
		phaseNew := 0.0
		for j := 1; j <= cfg.P; j++ {
			remaining := ringNodes[j] - recv[j]
			if remaining <= epsilon {
				continue
			}
			var integral float64
			if tab != nil {
				integral = tab.phaseIntegral(&cfg, freshDensity, j, succ, binom)
			} else {
				integrand := func(x float64) float64 {
					radial := cfg.R*float64(j-1) + x
					g := expectedFresh(rp, freshDensity, j, x)
					var success float64
					switch {
					case cfg.CarrierSense:
						h := expectedFreshAnnulus(rp, freshDensity, j, x)
						success = buckets.MuCSReal(g*cfg.Prob, h*cfg.Prob, cfg.S, cfg.KMode)
					case cfg.BinomialMix:
						success = buckets.MuBinomial(int(math.Round(g)), cfg.Prob, cfg.S)
					default:
						success = buckets.MuReal(g*cfg.Prob, cfg.S, cfg.KMode)
					}
					return radial * success
				}
				integral = simpson(integrand, 0, cfg.R, cfg.IntegrationPoints)
			}
			nji := 2 * math.Pi * (remaining / ringArea[j]) * integral
			if nji < 0 {
				nji = 0
			}
			if nji > remaining {
				nji = remaining
			}
			newRecv[j] = nji
			phaseNew += nji
		}

		if cfg.TrackSuccessRate && cfg.Prob > 0 {
			var s, o float64
			if tab != nil {
				s, o = tab.successRate(&cfg, deltaRing, freshDensity)
			} else {
				s, o = successRateContribution(cfg, rp, deltaRing, freshDensity)
			}
			succWeighted += s
			oppWeighted += o
		}

		for j := 1; j <= cfg.P; j++ {
			recv[j] += newRecv[j]
			lastNew[j] = newRecv[j]
		}
		totalRecv += phaseNew
		res.RingReceived = append(res.RingReceived, snapshotRings(lastNew, cfg.P))
		appendSample(float64(phase), 1+totalRecv, totalBroadcasts)

		if phaseNew <= epsilon {
			break
		}
	}

	res.Phases = len(tl.Phases) - 1
	if cfg.TrackSuccessRate && oppWeighted > 0 {
		res.SuccessRate = succWeighted / oppWeighted
	}
	return res, nil
}

// expectedFresh computes g(x): the expected number of nodes within
// transmission range of a node at offset x inside ring j that received
// the packet during the previous phase (Eq. 3).
func expectedFresh(rp geom.RingPartition, freshDensity []float64, j int, x float64) float64 {
	a := rp.TransmissionAreas(j, x)
	g := 0.0
	for d := 0; d < 3; d++ {
		k := j - 1 + d
		if k >= 1 && k <= rp.P {
			g += freshDensity[k] * a[d]
		}
	}
	return g
}

// expectedFreshAnnulus computes h(x): the expected number of
// freshly-informed nodes in the carrier-sensing annulus (between r and
// 2r) of a node at offset x inside ring j (Eq. A.2).
func expectedFreshAnnulus(rp geom.RingPartition, freshDensity []float64, j int, x float64) float64 {
	b := rp.CarrierSenseAreas(j, x)
	h := 0.0
	for d := 0; d < 5; d++ {
		k := j - 2 + d
		if k >= 1 && k <= rp.P {
			h += freshDensity[k] * b[d]
		}
	}
	return h
}

// successRateContribution accumulates the Fig. 12 success-rate model for
// one phase: the expected number of successful (sender → neighbour)
// deliveries and the expected number of delivery opportunities, both
// integrated over every node position in the field.
//
// A node at offset x in ring j sees K = g(x)·p contending transmissions
// spread over s slots; the expected number it decodes is the expected
// number of singleton slots, K·((s-1)/s)^(K-1). Opportunities are K
// itself: each in-range transmission is one chance to deliver.
func successRateContribution(cfg Config, rp geom.RingPartition, deltaRing []float64, freshDensity []float64) (succ, opp float64) {
	for j := 1; j <= cfg.P; j++ {
		integrandS := func(x float64) float64 {
			radial := cfg.R*float64(j-1) + x
			k := expectedFresh(rp, freshDensity, j, x) * cfg.Prob
			return radial * buckets.ExpectedSingletons(k, cfg.S)
		}
		integrandO := func(x float64) float64 {
			radial := cfg.R*float64(j-1) + x
			k := expectedFresh(rp, freshDensity, j, x) * cfg.Prob
			return radial * k
		}
		succ += 2 * math.Pi * deltaRing[j] * simpson(integrandS, 0, cfg.R, cfg.IntegrationPoints)
		opp += 2 * math.Pi * deltaRing[j] * simpson(integrandO, 0, cfg.R, cfg.IntegrationPoints)
	}
	return succ, opp
}

func snapshotRings(lastNew []float64, p int) []float64 {
	out := make([]float64, p)
	copy(out, lastNew[1:p+1])
	return out
}

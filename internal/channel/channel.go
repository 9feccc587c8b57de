// Package channel implements the paper's link-level communication
// models over a fixed deployment.
//
// Under CFM (Collision Free Model, §3.2.1) every transmission is an
// atomic operation delivered to all neighbours. Under CAM (Collision
// Aware Model, §3.2.2, Assumption 6) a packet is received only when it
// is the sole transmission audible at the receiver for its entire
// duration; the carrier-sensing variant (Appendix A) additionally
// requires silence from every node within twice the transmission
// radius. ModelSINR sharpens CAM's binary collision disk into physical
// interference (Halldórsson & Mitra's local-broadcasting setting): each
// receiver sums the path-loss power of every audible transmitter and a
// packet decodes iff its signal-to-interference-plus-noise ratio meets
// the threshold β. Radios are half-duplex: a transmitting node receives
// nothing during its own slot.
package channel

import (
	"errors"
	"fmt"

	"sensornet/internal/deploy"
	"sensornet/internal/mathx"
)

// Model selects the link-level communication model.
type Model int

const (
	// CFM is the Collision Free Model: transmissions always succeed.
	CFM Model = iota
	// CAM is the Collision Aware Model: concurrent in-range
	// transmissions to a common receiver all collide.
	CAM
	// CAMCarrierSense is CAM extended with a carrier-sensing range of
	// twice the transmission radius (Appendix A).
	CAMCarrierSense
	// ModelSINR is the physical-interference model: a reception decodes
	// iff signal/(N₀ + interference) >= β, where signal and interference
	// are normalised path-loss gains (d/R)^-α precomputed per edge by
	// the deployment. Interference is summed over transmitters within
	// the sensing range 2R (gains beyond it are at most 2^-α and are
	// truncated; the deployment must be generated WithSensing and with
	// GainAlpha set).
	ModelSINR
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case CFM:
		return "CFM"
	case CAM:
		return "CAM"
	case CAMCarrierSense:
		return "CAM+CS"
	case ModelSINR:
		return "SINR"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// SINRParams parameterises ModelSINR.
type SINRParams struct {
	// Alpha is the path-loss exponent; gains fall off as (d/R)^-Alpha.
	// It must match the deployment's GainAlpha.
	Alpha float64
	// Beta is the decode threshold: signal >= Beta·(N0 + interference).
	Beta float64
	// N0 is the noise floor in the same normalised power units as the
	// gains (a transmitter at the range edge has power exactly 1).
	N0 float64
}

// DefaultSINRParams returns the repo's reference SINR operating point:
// α = 3 (a common terrestrial path-loss exponent), β = 1.5, N₀ = 0.2.
// β·N₀ = 0.3 <= 1, so an interference-free transmitter still reaches
// every neighbour out to the range edge — a lone SINR transmission
// behaves exactly like a lone CAM transmission, which keeps the models
// comparable in the shootout campaign.
func DefaultSINRParams() SINRParams {
	return SINRParams{Alpha: 3, Beta: 1.5, N0: 0.2}
}

// Validate reports whether the parameters describe a usable channel.
func (p SINRParams) Validate() error {
	if p.Alpha <= 0 || !mathx.IsFinite(p.Alpha) {
		return fmt.Errorf("channel: SINR Alpha must be finite and > 0, got %g", p.Alpha)
	}
	if p.Beta <= 0 || !mathx.IsFinite(p.Beta) {
		return fmt.Errorf("channel: SINR Beta must be finite and > 0, got %g", p.Beta)
	}
	if p.N0 < 0 || !mathx.IsFinite(p.N0) {
		return fmt.Errorf("channel: SINR N0 must be finite and >= 0, got %g", p.N0)
	}
	return nil
}

// Costs carries the per-transmission cost constants of a model: (t_f,
// e_f) for CFM and (t_a, e_a) for CAM, in arbitrary units. The analysis
// counts broadcasts, so these are exposed for cost reporting only.
type Costs struct {
	Time   float64
	Energy float64
}

// DefaultCosts returns unit costs with the paper's ordering
// t_a <= t_f, e_a <= e_f: CFM's atomic reliable delivery is allowed to
// be more expensive than a raw CAM transmission.
func DefaultCosts(m Model) Costs {
	if m == CFM {
		return Costs{Time: 1.5, Energy: 1.5}
	}
	return Costs{Time: 1, Energy: 1}
}

// Resolver computes the outcome of slot-aligned concurrent
// transmissions over one deployment. It is stateful only within a call
// to ResolveSlot and reusable across slots and runs; epoch stamping
// avoids O(N) clearing per slot.
type Resolver struct {
	model Model
	dep   *deploy.Deployment

	stamp    []uint32  // epoch of the last write to count/from/power
	count    []int32   // in-range transmitters audible this slot
	from     []int32   // the unique transmitter when count == 1
	sense    []int32   // sensing-annulus transmitters audible this slot
	power    []float64 // SINR: total audible path-loss power this slot
	txStamp  []uint32  // epoch marking nodes transmitting this slot
	colStamp []uint32  // epoch deduplicating collision reports
	epoch    uint32

	sinr SINRParams // decode parameters when model is ModelSINR

	unicastScratch []int32 // sender list reused by ResolveSlotUnicast
	faultScratch   []int32 // up-transmitter list reused by ResolveSlotFaults
}

// Faults is the non-collision failure filter ResolveSlotFaults layers
// over a model's collision resolution: node-level outages (crash-stop,
// sleep, energy depletion) and per-packet link loss. Implementations
// must be deterministic for a fixed fault plan. The resolver consults
// TxUp once per transmitter before collision resolution, RxUp once per
// audible (transmitter, receiver) pair, and DropPacket exactly once per
// reception that survived both collision resolution and the RxUp
// filter, in a deterministic order (transmitters in txs order,
// receivers in neighbour-list order).
type Faults interface {
	// TxUp reports whether node u is able to transmit this slot. Down
	// transmitters are filtered out before collision resolution: a dead
	// radio does not interfere.
	TxUp(u int32) bool
	// RxUp reports whether node v is able to receive this slot. A down
	// receiver loses every packet aimed at it, collisions included.
	RxUp(v int32) bool
	// DropPacket reports whether the from→to packet, though decodable,
	// is independently lost to the lossy link layer.
	DropPacket(from, to int32) bool
}

// NewResolver builds a resolver for the model over dep. Carrier sensing
// requires the deployment to have been generated WithSensing; ModelSINR
// additionally requires precomputed gain tables and uses
// DefaultSINRParams (use NewResolverSINR to choose them).
func NewResolver(model Model, dep *deploy.Deployment) (*Resolver, error) {
	if model == ModelSINR {
		return NewResolverSINR(dep, DefaultSINRParams())
	}
	if dep == nil {
		return nil, errors.New("channel: nil deployment")
	}
	if model == CAMCarrierSense && dep.Sensing == nil {
		return nil, errors.New("channel: carrier-sense model needs deploy.Config.WithSensing")
	}
	return newResolver(model, dep), nil
}

// NewResolverSINR builds a ModelSINR resolver with explicit decode
// parameters. The deployment must carry both neighbour and sensing gain
// tables (deploy.Config.WithSensing plus GainAlpha) and its GainAlpha
// must equal params.Alpha — the tables are the precomputed form of the
// model's path loss, so a mismatch would silently decode under a
// different exponent than requested.
func NewResolverSINR(dep *deploy.Deployment, params SINRParams) (*Resolver, error) {
	if dep == nil {
		return nil, errors.New("channel: nil deployment")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if dep.Gains == nil || dep.SensingGains == nil {
		return nil, errors.New("channel: SINR model needs deploy.Config.WithSensing and GainAlpha (precomputed gain tables)")
	}
	//lint:ignore floateq both sides are the same configured constant, not computed values; any drift is a wiring bug
	if dep.GainAlpha != params.Alpha {
		return nil, fmt.Errorf("channel: deployment gains use alpha=%g but SINR params say alpha=%g",
			dep.GainAlpha, params.Alpha)
	}
	r := newResolver(ModelSINR, dep)
	r.power = make([]float64, dep.N())
	r.sinr = params
	return r, nil
}

// newResolver allocates the shared per-node scratch.
func newResolver(model Model, dep *deploy.Deployment) *Resolver {
	n := dep.N()
	return &Resolver{
		model:    model,
		dep:      dep,
		stamp:    make([]uint32, n),
		count:    make([]int32, n),
		from:     make([]int32, n),
		sense:    make([]int32, n),
		txStamp:  make([]uint32, n),
		colStamp: make([]uint32, n),
	}
}

// SINR returns the resolver's decode parameters (zero unless the model
// is ModelSINR).
func (r *Resolver) SINR() SINRParams { return r.sinr }

// Model returns the resolver's communication model.
func (r *Resolver) Model() Model { return r.model }

// ResolveSlot determines which transmissions in one time slot are
// delivered, invoking deliver(from, to) for every successful
// (transmitter, receiver) pair. Transmitters never receive in their own
// slot. The deliver callbacks are grouped by transmitter, in the order
// transmitters appear in txs.
func (r *Resolver) ResolveSlot(txs []int32, deliver func(from, to int32)) {
	r.ResolveSlotTraced(txs, deliver, nil)
}

// ResolveSlotTraced is ResolveSlot with collision observability: when
// collided is non-nil it is invoked once per receiver whose reception
// was destroyed this slot, with the number of in-range transmitters it
// heard (a carrier-sense kill with a single in-range transmitter
// reports 1). CFM never collides.
func (r *Resolver) ResolveSlotTraced(txs []int32, deliver func(from, to int32), collided func(to, heard int32)) {
	r.resolve(txs, deliver, collided, nil, nil)
}

// ResolveSlotFaults is ResolveSlotTraced with a fault filter layered on
// top of collision resolution. Down transmitters (TxUp false) are
// removed before resolution and neither deliver nor interfere. For each
// surviving (transmitter, receiver) pair: a down receiver loses the
// packet to lost (fault outranks collision — a sleeping radio does not
// observe the channel); a collided reception reports to collided as
// usual; a reception that survives collision resolution is delivered
// unless DropPacket loses it, in which case lost fires instead. lost
// receives one call per lost (from, to) pair; a nil fault filter makes
// this identical to ResolveSlotTraced.
func (r *Resolver) ResolveSlotFaults(txs []int32, f Faults,
	deliver func(from, to int32), collided func(to, heard int32), lost func(from, to int32)) {
	if f != nil {
		up := r.faultScratch[:0]
		for _, s := range txs {
			if f.TxUp(s) {
				up = append(up, s)
			}
		}
		r.faultScratch = up
		txs = up
	}
	r.resolve(txs, deliver, collided, f, lost)
}

// resolve is the shared slot-resolution core behind the public entry
// points. f and lost may be nil (fault-free resolution).
func (r *Resolver) resolve(txs []int32, deliver func(from, to int32), collided func(to, heard int32),
	f Faults, lost func(from, to int32)) {
	if len(txs) == 0 {
		return
	}
	r.epoch++
	for _, s := range txs {
		r.txStamp[s] = r.epoch
	}
	if r.model == CFM {
		for _, s := range txs {
			for _, v := range r.dep.Neighbors[s] {
				if r.txStamp[v] == r.epoch {
					continue
				}
				if f != nil && !f.RxUp(v) {
					if lost != nil {
						lost(s, v)
					}
					continue
				}
				if f != nil && f.DropPacket(s, v) {
					if lost != nil {
						lost(s, v)
					}
					continue
				}
				deliver(s, v)
			}
		}
		return
	}
	if r.model == ModelSINR {
		r.resolveSINR(txs, deliver, collided, f, lost)
		return
	}
	// Pass 1: tally audible transmitters per receiver.
	for _, s := range txs {
		for _, v := range r.dep.Neighbors[s] {
			if r.stamp[v] != r.epoch {
				r.stamp[v] = r.epoch
				r.count[v] = 0
				r.sense[v] = 0
			}
			r.count[v]++
			r.from[v] = s
		}
		if r.model == CAMCarrierSense {
			for _, v := range r.dep.Sensing[s] {
				if r.stamp[v] != r.epoch {
					r.stamp[v] = r.epoch
					r.count[v] = 0
					r.sense[v] = 0
				}
				r.sense[v]++
			}
		}
	}
	// Pass 2: deliver where exactly one in-range transmitter was heard
	// (and, under carrier sensing, no annulus interferer). Destroyed
	// receptions are reported once per receiver when requested; fault
	// losses (down receiver, dropped packet) once per pair.
	for _, s := range txs {
		for _, v := range r.dep.Neighbors[s] {
			if r.txStamp[v] == r.epoch {
				continue // half-duplex: v is transmitting
			}
			if f != nil && !f.RxUp(v) {
				if lost != nil {
					lost(s, v)
				}
				continue
			}
			ok := r.count[v] == 1 && r.from[v] == s &&
				(r.model != CAMCarrierSense || r.sense[v] == 0)
			switch {
			case ok && f != nil && f.DropPacket(s, v):
				if lost != nil {
					lost(s, v)
				}
			case ok:
				deliver(s, v)
			case collided != nil && r.colStamp[v] != r.epoch:
				r.colStamp[v] = r.epoch
				collided(v, r.count[v])
			}
		}
	}
}

// resolveSINR is the physical-interference slot core. Pass 1 sums every
// audible transmitter's precomputed path-loss gain into each receiver's
// power accumulator — in-range edges via the neighbour gain table,
// annulus edges (R, 2R] via the sensing gain table; interferers beyond
// 2R contribute at most 2^-α each and are truncated, a documented
// approximation that keeps the slot loop linear in the lists the
// deployment already carries. Pass 2 decodes each in-range (s, v) pair
// iff gain(s,v) >= β·(N₀ + totalPower(v) − gain(s,v)): the pair's own
// signal is subtracted from the accumulated total, so no per-pair state
// is needed beyond the shared accumulator. count/from are maintained
// exactly as under CAM so collided reports carry the same heard
// semantics, and accumulation order (txs order, then list order) is
// fixed, making the float sums bit-reproducible.
//
// With β >= 1 at most one transmitter can decode at a receiver per
// slot; with β < 1 several may (capture), and a receiver can then both
// deliver and report a destroyed reception in the same slot.
func (r *Resolver) resolveSINR(txs []int32, deliver func(from, to int32), collided func(to, heard int32),
	f Faults, lost func(from, to int32)) {
	for _, s := range txs {
		gains := r.dep.Gains[s]
		for i, v := range r.dep.Neighbors[s] {
			if r.stamp[v] != r.epoch {
				r.stamp[v] = r.epoch
				r.count[v] = 0
				r.power[v] = 0
			}
			r.count[v]++
			r.from[v] = s
			r.power[v] += gains[i]
		}
		sgains := r.dep.SensingGains[s]
		for i, v := range r.dep.Sensing[s] {
			if r.stamp[v] != r.epoch {
				r.stamp[v] = r.epoch
				r.count[v] = 0
				r.power[v] = 0
			}
			r.power[v] += sgains[i]
		}
	}
	beta, n0 := r.sinr.Beta, r.sinr.N0
	for _, s := range txs {
		gains := r.dep.Gains[s]
		for i, v := range r.dep.Neighbors[s] {
			if r.txStamp[v] == r.epoch {
				continue // half-duplex: v is transmitting
			}
			if f != nil && !f.RxUp(v) {
				if lost != nil {
					lost(s, v)
				}
				continue
			}
			sig := gains[i]
			ok := sig >= beta*(n0+r.power[v]-sig)
			switch {
			case ok && f != nil && f.DropPacket(s, v):
				if lost != nil {
					lost(s, v)
				}
			case ok:
				deliver(s, v)
			case collided != nil && r.colStamp[v] != r.epoch:
				r.colStamp[v] = r.epoch
				collided(v, r.count[v])
			}
		}
	}
}

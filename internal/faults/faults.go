// Package faults derives deterministic fault plans for simulation
// runs. The paper's CAM model makes collisions the only failure mode;
// real networked sensor systems also lose packets to fading and lose
// whole nodes to crashes, sleep schedules, and battery depletion — and
// the literature on transmit-only and lossy-channel broadcast shows
// protocol rankings can change once those processes enter the picture.
//
// A Plan realises four orthogonal fault processes on top of collision
// resolution:
//
//   - crash-stop: a node fails permanently at a pre-drawn phase;
//   - duty cycle: a node sleeps periodically (DutyOn awake phases,
//     DutyOff sleeping phases, per-node random offset);
//   - energy depletion: a node crash-stops once its cumulative
//     transmission energy spend exceeds a cap;
//   - link loss: an otherwise-successful reception is independently
//     lost with a fixed probability.
//
// Every random draw comes from streams seeded via engine.DeriveSeed,
// so one (seed, Config, n, horizon) tuple always yields a byte-identical
// fault timeline. Crash draws are additionally coupled across rates:
// the node-level uniforms are drawn before the rate threshold is
// applied, so at a fixed seed the crashed set at rate r is a subset of
// the crashed set at any r' > r and degradation sweeps are monotone by
// construction. The source (node 0) is exempt from node-level faults so
// every run has a broadcast to measure; its packets are still subject
// to link loss.
package faults

import (
	"errors"
	"fmt"
	"math/rand"

	"sensornet/internal/engine"
	"sensornet/internal/mathx"
)

// Config parameterises a fault plan. The zero value disables every
// fault process.
type Config struct {
	// CrashRate is the probability that a node suffers an independent
	// crash-stop failure at a uniform phase within the horizon.
	CrashRate float64
	// LossRate is the probability that an otherwise-successful packet
	// reception is independently lost (fading or interference outside
	// the CAM collision model). Applied after collision resolution.
	LossRate float64
	// DutyOn and DutyOff give nodes a periodic sleep schedule: DutyOn
	// awake phases followed by DutyOff sleeping phases, at a per-node
	// random offset. DutyOff == 0 keeps nodes awake permanently;
	// DutyOff > 0 requires DutyOn >= 1.
	DutyOn, DutyOff int
	// EnergyCap crash-stops a node once its cumulative transmission
	// energy spend exceeds the cap (in the channel model's energy
	// units); the transmission that crosses the cap still completes.
	// 0 means unlimited energy.
	EnergyCap float64
}

// Enabled reports whether any fault process is active.
func (c Config) Enabled() bool {
	return c.CrashRate > 0 || c.LossRate > 0 || c.DutyOff > 0 || c.EnergyCap > 0
}

// Validate reports whether the configuration is realisable. Every
// comparison with NaN is false, so the rates and the energy cap must
// also be finite: a NaN rate would otherwise pass and silently disable
// its fault process.
func (c Config) Validate() error {
	if !mathx.IsFinite(c.CrashRate) || c.CrashRate < 0 || c.CrashRate > 1 {
		return fmt.Errorf("faults: CrashRate %g outside [0, 1]", c.CrashRate)
	}
	if !mathx.IsFinite(c.LossRate) || c.LossRate < 0 || c.LossRate > 1 {
		return fmt.Errorf("faults: LossRate %g outside [0, 1]", c.LossRate)
	}
	if c.DutyOn < 0 || c.DutyOff < 0 {
		return errors.New("faults: duty-cycle lengths must be >= 0")
	}
	if c.DutyOff > 0 && c.DutyOn < 1 {
		return errors.New("faults: DutyOff > 0 requires DutyOn >= 1")
	}
	if !mathx.IsFinite(c.EnergyCap) || c.EnergyCap < 0 {
		return fmt.Errorf("faults: EnergyCap %g must be finite and >= 0", c.EnergyCap)
	}
	return nil
}

// Plan is the realised fault timeline of one run over n nodes and a
// phase horizon. Crash phases and duty offsets are fixed at
// construction; energy depletion unfolds as the simulator reports
// spends; loss decisions are drawn on demand from a dedicated stream in
// the simulator's deterministic consumption order. A nil *Plan is
// valid and fault-free, so callers can thread one unconditionally.
type Plan struct {
	cfg     Config
	horizon int32
	crashAt []int32 // crash-stop phase per node; -1 = never
	crashed int     // nodes with a realised crash in the horizon
	dutyOff []int32 // per-node duty-cycle phase offset

	spent    []float64
	depleted []bool
	nDeplete int

	loss *rand.Rand
}

// New realises a fault plan for n nodes over phases 1..horizon, drawing
// every schedule from streams derived off seed. Identical arguments
// yield identical plans.
func New(cfg Config, n, horizon int, seed int64) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("faults: n must be >= 1, got %d", n)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("faults: horizon must be >= 1, got %d", horizon)
	}
	p := &Plan{
		cfg:      cfg,
		horizon:  int32(horizon),
		crashAt:  make([]int32, n),
		dutyOff:  make([]int32, n),
		spent:    make([]float64, n),
		depleted: make([]bool, n),
		loss:     rand.New(rand.NewSource(engine.DeriveSeed(seed, "faults", "loss"))),
	}
	// Node-level draws happen for every node regardless of the rate, so
	// plans at the same seed but different rates stay coupled (nested
	// crash sets, identical crash phases for shared crashes).
	crash := rand.New(rand.NewSource(engine.DeriveSeed(seed, "faults", "crash")))
	for i := range p.crashAt {
		u := crash.Float64()
		ph := int32(1 + crash.Intn(horizon))
		p.crashAt[i] = -1
		if i != 0 && u < cfg.CrashRate {
			p.crashAt[i] = ph
			p.crashed++
		}
	}
	duty := rand.New(rand.NewSource(engine.DeriveSeed(seed, "faults", "duty")))
	if period := cfg.DutyOn + cfg.DutyOff; period > 0 {
		for i := range p.dutyOff {
			p.dutyOff[i] = int32(duty.Intn(period))
		}
	}
	return p, nil
}

// Horizon returns the plan's phase horizon.
func (p *Plan) Horizon() int32 {
	if p == nil {
		return 0
	}
	return p.horizon
}

// CrashPhase returns the phase at which node u crash-stops, or -1 if it
// never does.
func (p *Plan) CrashPhase(u int32) int32 {
	if p == nil {
		return -1
	}
	return p.crashAt[u]
}

// Alive reports whether node u has neither crash-stopped nor depleted
// its energy budget by phase ph. Sleep is not death: see Awake.
func (p *Plan) Alive(u, ph int32) bool {
	if p == nil {
		return true
	}
	if p.depleted[u] {
		return false
	}
	return p.crashAt[u] < 0 || ph < p.crashAt[u]
}

// Awake reports whether node u's duty-cycle schedule has it awake in
// phase ph. The source never sleeps.
func (p *Plan) Awake(u, ph int32) bool {
	if p == nil || p.cfg.DutyOff == 0 || u == 0 {
		return true
	}
	period := int32(p.cfg.DutyOn + p.cfg.DutyOff)
	k := (ph + p.dutyOff[u]) % period
	return k < int32(p.cfg.DutyOn)
}

// Up reports whether node u can participate in phase ph: alive and
// awake.
func (p *Plan) Up(u, ph int32) bool {
	return p.Alive(u, ph) && p.Awake(u, ph)
}

// NextUp returns the first phase >= ph within the horizon in which node
// u is up, and false when u dies or the horizon ends first. Used to
// defer a sleeping node's pending transmission to its next waking
// phase.
func (p *Plan) NextUp(u, ph int32) (int32, bool) {
	if p == nil {
		return ph, true
	}
	for q := ph; q <= p.horizon; q++ {
		if !p.Alive(u, q) {
			return 0, false
		}
		if p.Awake(u, q) {
			return q, true
		}
	}
	return 0, false
}

// Spend charges one transmission's energy to node u, crash-stopping it
// once cumulative spend exceeds the cap (the crossing transmission
// still completes). It reports whether u survives the spend. The
// source's budget is unlimited.
func (p *Plan) Spend(u int32, cost float64) bool {
	if p == nil || p.cfg.EnergyCap <= 0 || u == 0 {
		return true
	}
	p.spent[u] += cost
	if !p.depleted[u] && p.spent[u] > p.cfg.EnergyCap {
		p.depleted[u] = true
		p.nDeplete++
	}
	return !p.depleted[u]
}

// Drop draws one per-packet loss decision from the plan's loss stream.
// Callers must draw in a deterministic order (the channel resolver
// does), and only for receptions that survived collision resolution.
func (p *Plan) Drop() bool {
	if p == nil || p.cfg.LossRate <= 0 {
		return false
	}
	return p.loss.Float64() < p.cfg.LossRate
}

// Stats summarises the plan's realised node-level faults.
type Stats struct {
	// Crashed counts nodes with a crash-stop somewhere in the horizon.
	Crashed int
	// Depleted counts nodes killed by energy-budget depletion so far.
	Depleted int
}

// Stats returns the plan's realised fault counts.
func (p *Plan) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{Crashed: p.crashed, Depleted: p.nDeplete}
}

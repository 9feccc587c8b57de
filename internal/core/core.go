// Package core is the public face of the library: the abstract network
// model of Fig. 1(a) — deployment, communication model, programming
// primitives and cost functions — together with the PB_CAM broadcast
// algorithm and the design-methodology loop of Fig. 1(b): specify the
// algorithm, analyse it on the model, and tune its free parameter
// against a user-chosen performance metric.
//
// Typical use:
//
//	m := core.DefaultModel()                  // P=5, s=3, CAM
//	m.Rho = 100                               // measured density
//	opt, _ := m.OptimalProbability(core.MaxReachability,
//	    core.Constraints{Latency: 5, Reach: 0.72, Budget: 35})
//	res, _ := m.Simulate(opt.P, 42)           // validate on the simulator
package core

import (
	"context"
	"errors"
	"fmt"

	"sensornet/internal/analytic"
	"sensornet/internal/buckets"
	"sensornet/internal/channel"
	"sensornet/internal/metrics"
	"sensornet/internal/optimize"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
)

// Re-exported leaf types, so examples and tools need only this package.
type (
	// Timeline is a broadcast execution reduced to cumulative
	// reachability and broadcast count at phase boundaries.
	Timeline = metrics.Timeline
	// Constraints fixes the §4.1 metric constraint levels.
	Constraints = optimize.Constraints
	// Optimum is a located optimal broadcast probability.
	Optimum = optimize.Optimum
	// Point carries all four metric values at one probability.
	Point = optimize.Point
	// Model is a link-level communication model identifier.
	Model = channel.Model
	// Summary aggregates per-run metric samples.
	Summary = metrics.Summary
)

// Communication model identifiers.
const (
	CFM             = channel.CFM
	CAM             = channel.CAM
	CAMCarrierSense = channel.CAMCarrierSense
)

// NetworkModel is the abstract network model algorithms are designed
// against: a uniform disk deployment of density Rho (neighbours per
// node) with P rings of transmission radius R, slotted phases of S
// slots, and a link-level communication model.
type NetworkModel struct {
	// P is the field radius in transmission radii.
	P int
	// S is the number of backoff slots per time phase.
	S int
	// Rho is the density as average neighbours per node (δπr²).
	Rho float64
	// R is the transmission radius (scale parameter; default 1).
	R float64
	// Comm selects the communication model (default CAM).
	Comm Model
}

// DefaultModel returns the paper's evaluation model: P = 5, s = 3,
// CAM, unit radius, density 60.
func DefaultModel() NetworkModel {
	return NetworkModel{P: 5, S: 3, Rho: 60, R: 1, Comm: CAM}
}

// Validate reports whether the model is usable.
func (m NetworkModel) Validate() error {
	if m.P < 1 || m.S < 1 || m.Rho <= 0 {
		return fmt.Errorf("core: invalid model %+v", m)
	}
	return nil
}

// N returns the expected node count δπ(Pr)² = ρP².
func (m NetworkModel) N() float64 {
	return m.Rho * float64(m.P) * float64(m.P)
}

// Costs returns the per-transmission cost constants of the model's
// communication layer.
func (m NetworkModel) Costs() channel.Costs {
	return channel.DefaultCosts(m.Comm)
}

// Analyze evaluates the paper's analytical framework for PB_CAM with
// broadcast probability p and returns the predicted timeline.
func (m NetworkModel) Analyze(p float64) (Timeline, error) {
	if err := m.Validate(); err != nil {
		return Timeline{}, err
	}
	if m.Comm == CFM {
		//lint:ignore floateq flooding is exactly p = 1 by definition; callers pass the literal, nothing is computed
		if p != 1 {
			return Timeline{}, errors.New("core: CFM analysis covers flooding (p = 1) only")
		}
		return analytic.CFMFlooding(m.P, m.Rho), nil
	}
	res, err := analytic.Run(m.analyticConfig(p))
	if err != nil {
		return Timeline{}, err
	}
	return res.Timeline, nil
}

// FloodingSuccessRate returns the modelled mean broadcast success rate
// of simple flooding under CAM (the Fig. 12 quantity).
func (m NetworkModel) FloodingSuccessRate() (float64, error) {
	cfg := m.analyticConfig(1)
	cfg.TrackSuccessRate = true
	res, err := analytic.Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.SuccessRate, nil
}

// Simulate runs one simulation of PB_CAM with probability p.
func (m NetworkModel) Simulate(p float64, seed int64) (*sim.Result, error) {
	return sim.Run(m.simConfig(protocol.Probability{P: p}, seed, false))
}

// SimulateAsync runs one simulation with per-node random phase offsets
// (no network-wide slot alignment).
func (m NetworkModel) SimulateAsync(p float64, seed int64) (*sim.Result, error) {
	return sim.Run(m.simConfig(protocol.Probability{P: p}, seed, true))
}

// SimulateProtocol runs one simulation of an arbitrary broadcast
// scheme (flooding, counter-based, distance-based, ...).
func (m NetworkModel) SimulateProtocol(pr protocol.Protocol, seed int64) (*sim.Result, error) {
	return sim.Run(m.simConfig(pr, seed, false))
}

// SimulateMany runs `runs` independent simulations of PB_CAM and
// aggregates them; cancelling ctx skips the replications not yet
// started.
func (m NetworkModel) SimulateMany(ctx context.Context, p float64, seed int64, runs int) (*sim.Aggregate, error) {
	cfg := m.simConfig(protocol.Probability{P: p}, seed, false)
	return sim.RunMany(ctx, cfg, runs, 0)
}

// Objective selects which §4.1 metric OptimalProbability optimises. Its
// values index optimize.Selectors(), in the registry's order.
type Objective int

const (
	// MaxReachability maximises reachability within the latency
	// constraint (metric 1, Fig. 4).
	MaxReachability Objective = iota
	// MinLatency minimises latency to the reachability constraint
	// (metric 3, Fig. 5).
	MinLatency
	// MinEnergy minimises broadcasts to the reachability constraint
	// (metric 4, Fig. 6).
	MinEnergy
	// MaxReachabilityAtBudget maximises reachability within the
	// broadcast budget (metric 5, Fig. 7).
	MaxReachabilityAtBudget
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MaxReachability:
		return "max-reachability@latency"
	case MinLatency:
		return "min-latency@reachability"
	case MinEnergy:
		return "min-energy@reachability"
	case MaxReachabilityAtBudget:
		return "max-reachability@budget"
	default:
		return "unknown"
	}
}

// OptimalProbability performs the Fig. 1(b) optimisation: it sweeps the
// broadcast probability over grid (defaulting to the paper's
// 0.01..1.00 step 0.01 when nil) on the analytical model and returns
// the optimum for the objective.
func (m NetworkModel) OptimalProbability(obj Objective, c Constraints, grid []float64) (Optimum, error) {
	if err := m.Validate(); err != nil {
		return Optimum{}, err
	}
	sels := optimize.Selectors()
	if obj < 0 || int(obj) >= len(sels) {
		return Optimum{}, fmt.Errorf("core: unknown objective %d", int(obj))
	}
	pts, err := m.Sweep(c, grid)
	if err != nil {
		return Optimum{}, err
	}
	o, ok := sels[obj].Pick(pts)
	if !ok {
		return Optimum{}, fmt.Errorf("core: no feasible probability for %v under %+v", obj, c)
	}
	return o, nil
}

// Sweep exposes the raw analytic metric sweep for custom analyses.
func (m NetworkModel) Sweep(c Constraints, grid []float64) ([]Point, error) {
	if grid == nil {
		grid = defaultGrid()
	}
	return optimize.SweepAnalytic(m.analyticConfig(0), grid, c)
}

func defaultGrid() []float64 {
	g := make([]float64, 100)
	for i := range g {
		g[i] = float64(i+1) / 100
	}
	return g
}

func (m NetworkModel) analyticConfig(p float64) analytic.Config {
	return analytic.Config{
		P: m.P, S: m.S, Rho: m.Rho, R: m.R, Prob: p,
		KMode:        buckets.KLinear,
		CarrierSense: m.Comm == CAMCarrierSense,
	}
}

func (m NetworkModel) simConfig(pr protocol.Protocol, seed int64, async bool) sim.Config {
	return sim.Config{
		P: m.P, S: m.S, Rho: m.Rho, R: m.R,
		Model:    m.Comm,
		Protocol: pr,
		Seed:     seed,
		Async:    async,
	}
}

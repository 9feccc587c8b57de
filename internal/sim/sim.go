// Package sim is the network simulator used to validate the analytical
// framework — the role GloMoSim plays in the paper's §5, rebuilt on the
// repository's own deployment, channel, and protocol substrates.
//
// Executions follow the PB_CAM schedule of §4.2: time is organised in
// phases of S slots; the source transmits in phase 1; a node that first
// decodes the packet runs its protocol decision and, if positive,
// transmits once in a uniformly random slot of its next phase. The
// default engine assumes network-wide slot alignment (the assumption the
// paper makes for analysis); the asynchronous engine gives every node a
// random phase offset and resolves collisions in continuous time on a
// discrete-event kernel, exercising the paper's remark that the
// algorithm itself needs no synchronisation.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sensornet/internal/channel"
	"sensornet/internal/deploy"
	"sensornet/internal/engine"
	"sensornet/internal/faults"
	"sensornet/internal/metrics"
	"sensornet/internal/protocol"
	"sensornet/internal/trace"
)

// Config parameterises one simulation run.
type Config struct {
	// P, R, Rho, N describe the deployment (see deploy.Config).
	P   int
	R   float64
	Rho float64
	N   int
	// S is the number of slots per phase (paper: 3).
	S int
	// Model is the link-level communication model (default CAM).
	Model channel.Model
	// SINR parameterises the physical-interference model; consulted
	// only when Model is channel.ModelSINR. The zero value means
	// channel.DefaultSINRParams().
	SINR channel.SINRParams
	// Protocol is the broadcast scheme (default Flooding).
	Protocol protocol.Protocol
	// Seed drives deployment sampling and every protocol coin flip.
	Seed int64
	// Async enables per-node random phase offsets with continuous-time
	// collision resolution.
	Async bool
	// MaxPhases caps the execution length (default 1000).
	MaxPhases int
	// Deployment, when non-nil, is used instead of sampling a fresh
	// one (the deployment's own parameters then take precedence).
	Deployment *deploy.Deployment
	// Faults, when non-nil and enabled, layers a deterministic fault
	// plan (crash-stop, duty cycling, energy depletion, link loss) on
	// top of the communication model. The plan's streams derive from
	// Seed via engine.DeriveSeed, so equal seeds yield byte-identical
	// fault timelines.
	Faults *faults.Config
	// Tracer, when non-nil, receives every channel event (see the
	// trace package). Tracing adds per-event overhead; leave nil in
	// parameter sweeps.
	Tracer trace.Tracer
}

func (c *Config) applyDefaults() {
	//lint:ignore floateq exact zero is the "unset" sentinel for config fields, not a computed value
	if c.R == 0 {
		c.R = 1
	}
	if c.MaxPhases == 0 {
		c.MaxPhases = 1000
	}
	if c.Protocol == nil {
		c.Protocol = protocol.Flooding{}
	}
	if c.Model == channel.ModelSINR && c.SINR == (channel.SINRParams{}) {
		c.SINR = channel.DefaultSINRParams()
	}
}

// deployConfig is the deployment the run samples when none is supplied:
// sensing lists for carrier sensing and SINR (the interference annulus),
// gain tables only for SINR. GainAlpha does not perturb positions —
// deploy.Place makes every draw and deploy.Build none — so the same
// seed places nodes identically across all three channel models
// (common random numbers across the model axis). A pooled run checks
// this: it replays placement and fails unless the positions are
// bit-equal to the shared build's (see Pool).
func deployConfig(cfg *Config) deploy.Config {
	dc := deploy.Config{
		P: cfg.P, R: cfg.R, Rho: cfg.Rho, N: cfg.N,
		WithSensing: cfg.Model == channel.CAMCarrierSense || cfg.Model == channel.ModelSINR,
	}
	if cfg.Model == channel.ModelSINR {
		dc.GainAlpha = cfg.SINR.Alpha
	}
	return dc
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.S < 1 {
		return errors.New("sim: S must be >= 1")
	}
	if c.Deployment == nil {
		dc := deploy.Config{P: c.P, R: c.R, Rho: c.Rho, N: c.N}
		if err := dc.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if c.MaxPhases < 0 {
		return errors.New("sim: MaxPhases must be >= 0")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// Result is the outcome of one simulation run.
type Result struct {
	// Timeline carries cumulative reachability and broadcast counts at
	// phase boundaries, in the shared metrics shape.
	Timeline metrics.Timeline
	// N is the node count, Reached the nodes holding the packet at
	// termination (source included), Broadcasts the transmissions
	// performed.
	N          int
	Reached    int
	Broadcasts int
	// Connected is the number of nodes reachable from the source in
	// the communication graph: the ceiling on Reached.
	Connected int
	// SuccessRate is the mean, over transmissions, of the fraction of
	// the transmitter's neighbours that decoded the packet (Fig. 12's
	// measured quantity). NaN-free: transmissions with no neighbours
	// count as zero-success.
	SuccessRate float64
	// PhaseNew[i] is the number of first receptions during phase i+1.
	PhaseNew []int
	// RingReached[j-1] counts the nodes of ring j holding the packet
	// at termination (the source counts towards ring 1); RingNodes is
	// the ring population. Together they resolve the broadcast
	// wavefront by ring, the quantity the analytic recursion predicts.
	RingReached []int
	RingNodes   []int
	// RingArrival[j-1] is the mean phase of first reception in ring j
	// (NaN for unreached rings).
	RingArrival []float64
	// Delivered counts successful packet receptions (duplicates
	// included); LostToCollision counts receptions destroyed by CAM
	// collisions (one per receiver per slot, matching
	// trace.KindCollision); LostToFault counts receptions lost to the
	// fault plan instead — down receivers and per-packet link loss, one
	// per (transmitter, receiver) pair.
	Delivered       int
	LostToCollision int
	LostToFault     int
	// Crashed counts the nodes the fault plan crash-stops within the
	// horizon; Depleted counts nodes killed by energy-budget depletion
	// during the run. Both are zero without a fault plan.
	Crashed  int
	Depleted int
}

// Run executes one simulation. It is the unpooled run: a nil Pool's.
func Run(cfg Config) (*Result, error) { return (*Pool)(nil).Run(cfg) }

// Run executes one simulation exactly as the package-level Run does,
// taking the run's deployment from the pool when registered runs share
// it (see Pool). A run that brings its own Deployment bypasses the
// pool.
func (p *Pool) Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	//lint:ignore seedderive Config.Seed is the run's root seed; campaigns derive it per row via engine.DeriveSeed
	rng := rand.New(rand.NewSource(cfg.Seed))
	dep, err := p.deployment(&cfg, rng)
	if err != nil {
		return nil, err
	}
	var plan *faults.Plan
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		if plan, err = faults.New(*cfg.Faults, dep.N(), cfg.MaxPhases,
			engine.DeriveSeed(cfg.Seed, "sim", "faults")); err != nil {
			return nil, err
		}
	}
	if cfg.Async {
		return runAsync(cfg, dep, rng, plan)
	}
	return runSync(cfg, dep, rng, plan)
}

// newResolver builds the slot resolver for the configured model,
// threading the run's SINR parameters through when they apply.
func newResolver(cfg *Config, dep *deploy.Deployment) (*channel.Resolver, error) {
	if cfg.Model == channel.ModelSINR {
		return channel.NewResolverSINR(dep, cfg.SINR)
	}
	return channel.NewResolver(cfg.Model, dep)
}

// noTx marks a node with no pending transmission.
const noTx = -1

// syncRun is the slot-aligned engine's per-run state. Everything the
// slot loop touches — node state, per-slot scratch, and the delivery /
// collision / fault-loss callbacks handed to the channel resolver —
// lives on this struct and is allocated once per run, so the steady
// state of the loop performs zero heap allocations per slot. The
// callbacks are bound once in newSyncRun (a closure allocated per slot
// escapes to the heap via the resolver call); phase and slot are fields
// the loop updates so the bound callbacks always observe the current
// slot.
type syncRun struct {
	cfg      *Config
	dep      *deploy.Deployment
	rng      *rand.Rand
	plan     *faults.Plan
	state    protocol.State
	resolver *channel.Resolver
	res      *Result

	phase int32 // current time phase (trace records, fault filters)
	slot  int32 // current slot within the phase

	energyCost float64

	txSlot      []int32 // slot of the pending transmission, noTx if none
	txPhase     []int32
	hasPacket   []bool
	cancelled   []bool
	firstPhase  []int32
	deliveredBy []int32   // per-slot delivery counts, reset after use
	bySlot      [][]int32 // transmitters per slot, reused across phases

	// First receptions of the current slot, recorded flat (receiver,
	// transmitter) and replayed after resolution; reused across slots.
	firstTo   []int32
	firstFrom []int32

	pendingCount int
	reached      int
	broadcasts   int
	succSum      float64
	succN        int

	deliverFn func(from, to int32)
	collideFn func(to, heard int32)
	dropFn    func(from, to int32)
}

// newSyncRun allocates the run state and binds the resolver callbacks.
func newSyncRun(cfg *Config, dep *deploy.Deployment, rng *rand.Rand, plan *faults.Plan) (*syncRun, error) {
	resolver, err := newResolver(cfg, dep)
	if err != nil {
		return nil, err
	}
	n := dep.N()
	r := &syncRun{
		cfg: cfg, dep: dep, rng: rng, plan: plan,
		state:       cfg.Protocol.NewState(n),
		resolver:    resolver,
		res:         &Result{N: n, Connected: dep.ReachableFromSource()},
		energyCost:  channel.DefaultCosts(cfg.Model).Energy,
		txSlot:      make([]int32, n),
		txPhase:     make([]int32, n),
		hasPacket:   make([]bool, n),
		cancelled:   make([]bool, n),
		firstPhase:  make([]int32, n),
		deliveredBy: make([]int32, n),
		bySlot:      make([][]int32, cfg.S),
	}
	r.res.Timeline.N = float64(n)
	for i := range r.txSlot {
		r.txSlot[i] = noTx
		r.firstPhase[i] = -1
	}
	r.firstPhase[0] = 0
	r.deliverFn = r.deliver
	r.collideFn = r.collide
	r.dropFn = r.drop
	return r, nil
}

// syncRun implements channel.Faults for its own fault plan, saving the
// per-slot adapter value (an interface conversion heap-allocates).
func (r *syncRun) TxUp(u int32) bool              { return r.plan.Up(u, r.phase) }
func (r *syncRun) RxUp(v int32) bool              { return r.plan.Up(v, r.phase) }
func (r *syncRun) DropPacket(from, to int32) bool { return r.plan.Drop() }

func (r *syncRun) record(k trace.Kind, node, other int32) {
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Record(trace.Event{
			Kind: k, Phase: r.phase, Slot: r.slot,
			Node: node, Other: other,
		})
	}
}

func (r *syncRun) sample() {
	tl := &r.res.Timeline
	tl.Phases = append(tl.Phases, float64(r.phase))
	tl.CumReach = append(tl.CumReach, float64(r.reached)/float64(r.res.N))
	tl.CumBroadcasts = append(tl.CumBroadcasts, float64(r.broadcasts))
}

// deliver is the resolver's success callback.
func (r *syncRun) deliver(from, to int32) {
	r.res.Delivered++
	r.deliveredBy[from]++
	r.record(trace.KindDeliver, to, from)
	if !r.hasPacket[to] {
		r.firstTo = append(r.firstTo, to)
		r.firstFrom = append(r.firstFrom, from)
		r.hasPacket[to] = true
		r.record(trace.KindFirstReceive, to, from)
	} else if r.txSlot[to] != noTx && !r.cancelled[to] {
		d := r.dep.Pos[to].Dist(r.dep.Pos[from])
		ctx := protocol.Ctx{Phase: r.phase, Degree: r.dep.Degree(int(to))}
		if !r.state.OnDuplicate(to, from, d, ctx) {
			r.cancelled[to] = true
			r.pendingCount--
			r.record(trace.KindCancel, to, from)
		}
	}
}

// collide is the resolver's destroyed-reception callback.
func (r *syncRun) collide(to, heard int32) {
	r.res.LostToCollision++
	r.record(trace.KindCollision, to, heard)
}

// drop is the resolver's fault-loss callback.
func (r *syncRun) drop(from, to int32) {
	r.res.LostToFault++
	r.record(trace.KindDrop, to, from)
}

// runSync executes the slot-aligned engine.
func runSync(cfg Config, dep *deploy.Deployment, rng *rand.Rand, plan *faults.Plan) (*Result, error) {
	r, err := newSyncRun(&cfg, dep, rng, plan)
	if err != nil {
		return nil, err
	}
	n := dep.N()
	res := r.res

	// Phase 0 anchor: only the source holds the packet.
	r.hasPacket[0] = true
	r.reached = 1
	r.sample()

	// The source transmits in a random slot of phase 1.
	r.txSlot[0] = int32(rng.Intn(cfg.S))
	r.txPhase[0] = 1
	r.pendingCount = 1

	for phase := 1; phase <= cfg.MaxPhases && r.pendingCount > 0; phase++ {
		r.phase = int32(phase)
		for s := range r.bySlot {
			r.bySlot[s] = r.bySlot[s][:0]
		}
		// Collect this phase's transmitters (cancellation may still
		// strike before their slot). Under a fault plan, a sleeping
		// node's pending transmission defers to its next waking phase
		// (same slot); a node that dies first loses it.
		for i := 0; i < n; i++ {
			if r.txSlot[i] == noTx || int(r.txPhase[i]) > phase {
				continue
			}
			if plan != nil {
				up, ok := plan.NextUp(int32(i), int32(phase))
				if !ok {
					r.txSlot[i] = noTx
					continue
				}
				if int(up) != phase {
					r.txPhase[i] = up
					continue
				}
			}
			r.bySlot[r.txSlot[i]] = append(r.bySlot[r.txSlot[i]], int32(i))
		}
		phaseNew := 0
		for s := 0; s < cfg.S; s++ {
			r.slot = int32(s)
			// Drop transmissions cancelled by duplicates heard in
			// earlier slots, and (under a fault plan) transmissions
			// whose node died mid-phase of energy depletion.
			txs := r.bySlot[s][:0]
			for _, id := range r.bySlot[s] {
				if !r.cancelled[id] && plan.Up(id, r.phase) {
					txs = append(txs, id)
				}
				r.txSlot[id] = noTx
			}
			if len(txs) == 0 {
				continue
			}
			r.broadcasts += len(txs)

			if cfg.Tracer != nil {
				for _, id := range txs {
					r.record(trace.KindTx, id, -1)
				}
			}
			r.firstTo = r.firstTo[:0]
			r.firstFrom = r.firstFrom[:0]
			if plan != nil {
				r.resolver.ResolveSlotFaults(txs, r, r.deliverFn, r.collideFn, r.dropFn)
				// Charge transmission energy after the slot resolves:
				// the spend that crosses the cap still completes.
				for _, id := range txs {
					plan.Spend(id, r.energyCost)
				}
			} else {
				r.resolver.ResolveSlotTraced(txs, r.deliverFn, r.collideFn)
			}
			// Every transmission contributes to the success rate, the
			// zero-delivery ones included (Fig. 12's measured ratio).
			for _, id := range txs {
				if deg := dep.Degree(int(id)); deg > 0 {
					r.succSum += float64(r.deliveredBy[id]) / float64(deg)
				}
				r.succN++
				r.deliveredBy[id] = 0
			}

			for i, to := range r.firstTo {
				from := r.firstFrom[i]
				r.reached++
				phaseNew++
				r.firstPhase[to] = r.phase
				d := dep.Pos[to].Dist(dep.Pos[from])
				ctx := protocol.Ctx{Phase: r.phase, Degree: dep.Degree(int(to))}
				if r.state.OnFirstReceive(to, from, d, ctx, rng) {
					r.txSlot[to] = int32(rng.Intn(cfg.S))
					r.txPhase[to] = int32(phase + 1)
					r.pendingCount++
				}
			}
		}
		// Pending transmissions for this phase have all fired or been
		// dropped; recount what remains for the next phase.
		r.pendingCount = 0
		for i := 0; i < n; i++ {
			if r.txSlot[i] != noTx && !r.cancelled[i] {
				r.pendingCount++
			}
		}
		res.PhaseNew = append(res.PhaseNew, phaseNew)
		r.sample()
	}

	res.Reached = r.reached
	res.Broadcasts = r.broadcasts
	if r.succN > 0 {
		res.SuccessRate = r.succSum / float64(r.succN)
	}
	st := plan.Stats()
	res.Crashed, res.Depleted = st.Crashed, st.Depleted
	fillRingStats(res, dep, r.firstPhase)
	return res, nil
}

// fillRingStats resolves first-reception phases by ring, producing the
// simulated counterpart of the analytic n_j^i wavefront.
func fillRingStats(res *Result, dep *deploy.Deployment, firstPhase []int32) {
	p := int(math.Round(dep.FieldRadius / dep.R))
	if p < 1 {
		p = 1
	}
	res.RingReached = make([]int, p)
	res.RingNodes = make([]int, p)
	res.RingArrival = make([]float64, p)
	sum := make([]float64, p)
	cnt := make([]int, p)
	for i := range dep.Pos {
		j := dep.RingOf(i) - 1
		res.RingNodes[j]++
		if firstPhase[i] >= 0 {
			res.RingReached[j]++
			sum[j] += float64(firstPhase[i])
			cnt[j]++
		}
	}
	for j := 0; j < p; j++ {
		if cnt[j] > 0 {
			res.RingArrival[j] = sum[j] / float64(cnt[j])
		} else {
			res.RingArrival[j] = math.NaN()
		}
	}
}

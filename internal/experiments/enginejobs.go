package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"sensornet/internal/analytic"
	"sensornet/internal/engine"
	"sensornet/internal/optimize"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
)

// CacheSalt is the code-version salt mixed into every job fingerprint
// and into the engine.Cache address space: bump it whenever the
// analytic model, the simulator, or the sweep semantics change, so
// stale cache entries can never leak into a regenerated figure.
//
// v2: simulated sweeps share each replication's deployment across all
// grid probabilities (common random numbers) instead of resampling it
// per probability, and analytic surfaces shard per (density,
// probability) point instead of per density row.
//
// v3: the async engine's phase-boundary conventions were unified
// (boundary-valued receptions attribute to the phase they close, trace
// slots are node-local), which changes async simulation outputs.
//
// The simulated surface's move from per-density rows on a derived
// deployment stream to pooled per-point cells changed its values
// without a bump: its jobs took a new key kind, sim-point, which no
// old entry matches.
const CacheSalt = "sensornet-exp-v3"

// analyticPointKey fingerprints one analytic surface point: every field
// of the model config plus the probability and constraint levels.
func analyticPointKey(cfg analytic.Config, p float64, c optimize.Constraints) string {
	return engine.Fingerprint("analytic-point", CacheSalt,
		cfg.P, cfg.S, cfg.Rho, cfg.R, cfg.KMode, cfg.BinomialMix,
		cfg.CarrierSense, cfg.IntegrationPoints, cfg.MaxPhases,
		p, c.Latency, c.Reach, c.Budget)
}

// pointJSON is the NaN-safe serialisation of optimize.Point: the
// constrained metrics are NaN when infeasible, which encoding/json
// rejects, so they round-trip as null.
type pointJSON struct {
	P             float64  `json:"p"`
	ReachAtL      *float64 `json:"reachAtL"`
	Latency       *float64 `json:"latency"`
	Broadcasts    *float64 `json:"broadcasts"`
	ReachAtBudget *float64 `json:"reachAtBudget"`
	SuccessRate   *float64 `json:"successRate"`
	Final         *float64 `json:"final"`
}

func toNullable(x float64) (*float64, error) {
	if math.IsNaN(x) {
		return nil, nil
	}
	if math.IsInf(x, 0) {
		return nil, fmt.Errorf("experiments: non-cacheable infinite metric")
	}
	return &x, nil
}

func fromNullable(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// encodePoints serialises analytic surface points for the disk cache
// layer.
func encodePoints(v any) ([]byte, error) {
	pts, ok := v.([]optimize.Point)
	if !ok {
		return nil, fmt.Errorf("experiments: expected []optimize.Point, got %T", v)
	}
	rows := make([]pointJSON, len(pts))
	for i, pt := range pts {
		var err error
		row := pointJSON{P: pt.P}
		if row.ReachAtL, err = toNullable(pt.ReachAtL); err != nil {
			return nil, err
		}
		if row.Latency, err = toNullable(pt.Latency); err != nil {
			return nil, err
		}
		if row.Broadcasts, err = toNullable(pt.Broadcasts); err != nil {
			return nil, err
		}
		if row.ReachAtBudget, err = toNullable(pt.ReachAtBudget); err != nil {
			return nil, err
		}
		if row.SuccessRate, err = toNullable(pt.SuccessRate); err != nil {
			return nil, err
		}
		if row.Final, err = toNullable(pt.Final); err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return json.Marshal(rows)
}

// decodePoints is the inverse of encodePoints.
func decodePoints(data []byte) (any, error) {
	var rows []pointJSON
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, err
	}
	pts := make([]optimize.Point, len(rows))
	for i, row := range rows {
		pts[i] = optimize.Point{
			P:             row.P,
			ReachAtL:      fromNullable(row.ReachAtL),
			Latency:       fromNullable(row.Latency),
			Broadcasts:    fromNullable(row.Broadcasts),
			ReachAtBudget: fromNullable(row.ReachAtBudget),
			SuccessRate:   fromNullable(row.SuccessRate),
			Final:         fromNullable(row.Final),
		}
	}
	return pts, nil
}

// analyticPointJob builds the cached job computing one analytic surface
// point (one grid probability at one density). Point-level sharding
// keeps every worker of a wide pool busy even when the preset sweeps
// few densities, and lets a warmed cache resume a partially computed
// row. The job's value is a 1-element []optimize.Point, the payload
// its cache entries have always held.
func analyticPointJob(pre Preset, rho, p float64) engine.Job {
	cfg := pre.AnalyticConfig(rho)
	return engine.JobFunc{
		JobName:  fmt.Sprintf("analytic-point(rho=%g,p=%g)", rho, p),
		Key:      analyticPointKey(cfg, p, pre.Constraints),
		EncodeFn: encodePoints,
		DecodeFn: decodePoints,
		Fn: func(ctx context.Context) (any, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return optimize.SweepAnalytic(cfg, []float64{p}, pre.Constraints)
		},
	}
}

// analyticPointJobs builds the full point-job batch of a preset's
// analytic surface, row-major in (Rhos, Grid) order.
func analyticPointJobs(pre Preset) []engine.Job {
	jobs := make([]engine.Job, 0, len(pre.Rhos)*len(pre.Grid))
	for _, rho := range pre.Rhos {
		for _, p := range pre.Grid {
			jobs = append(jobs, analyticPointJob(pre, rho, p))
		}
	}
	return jobs
}

// simPointJobs builds the cell batch of a preset's simulated surface,
// row-major in (Rhos, Grid) order: one PB_CAM cell per (density,
// probability) point, keyed by the point and every constraint level.
// The points of a density share each replication's deployment through
// pool, so they differ only in protocol coin flips — the pairing the
// optimizer's argmax wants.
func simPointJobs(pre Preset, pool *sim.Pool) []engine.Job {
	c := pre.Constraints
	jobs := make([]engine.Job, 0, len(pre.Rhos)*len(pre.Grid))
	for _, rho := range pre.Rhos {
		for _, p := range pre.Grid {
			cfg := pre.SimConfig(rho)
			cfg.Protocol = protocol.Probability{P: p}
			jobs = append(jobs, cellJob[pointCell](cell{
				name: fmt.Sprintf("sim-point(rho=%g,p=%g)", rho, p),
				key: cellKey("sim-point", cfg, cfg.Model, p,
					c.Latency, c.Reach, c.Budget, pre.Runs),
				cfg: cfg, runs: pre.Runs, levels: c, pool: pool,
			}))
		}
	}
	return jobs
}

// pointCell is the cached aggregate of one simulated surface point: the
// mean of each metric over the runs, except latency and broadcasts to
// the reachability target, which average over the runs that reached it
// and count those runs. Every field is finite; point applies the
// feasibility rule.
type pointCell struct {
	Runs          int     `json:"runs"`
	ReachAtL      float64 `json:"reachAtL"`
	Latency       float64 `json:"latency"`
	LatencyRuns   int     `json:"latencyRuns"`
	Broadcasts    float64 `json:"broadcasts"`
	BroadcastRuns int     `json:"broadcastRuns"`
	ReachAtBudget float64 `json:"reachAtBudget"`
	SuccessRate   float64 `json:"successRate"`
	Final         float64 `json:"final"`
}

func (c *pointCell) add(res *sim.Result, levels optimize.Constraints) {
	tl := res.Timeline
	c.ReachAtL += tl.ReachabilityAtPhase(levels.Latency)
	if l, ok := tl.LatencyToReach(levels.Reach); ok {
		c.Latency += l
		c.LatencyRuns++
	}
	if b, ok := tl.BroadcastsToReach(levels.Reach); ok {
		c.Broadcasts += b
		c.BroadcastRuns++
	}
	c.ReachAtBudget += tl.ReachabilityAtBudget(levels.Budget)
	c.SuccessRate += res.SuccessRate
	c.Final += tl.FinalReachability()
}

func (c *pointCell) div(n float64) {
	c.Runs = int(n)
	c.ReachAtL /= n
	if c.LatencyRuns > 0 {
		c.Latency /= float64(c.LatencyRuns)
	}
	if c.BroadcastRuns > 0 {
		c.Broadcasts /= float64(c.BroadcastRuns)
	}
	c.ReachAtBudget /= n
	c.SuccessRate /= n
	c.Final /= n
}

// point reads the cell as the surface point at probability p. Latency
// and broadcasts read NaN unless at least half the runs reached the
// target: an operating point that mostly fails its constraint is not a
// usable optimum.
func (c pointCell) point(p float64) optimize.Point {
	majority := func(mean float64, runs int) float64 {
		if runs < 1 || 2*runs < c.Runs {
			return math.NaN()
		}
		return mean
	}
	return optimize.Point{P: p, ReachAtL: c.ReachAtL,
		Latency:       majority(c.Latency, c.LatencyRuns),
		Broadcasts:    majority(c.Broadcasts, c.BroadcastRuns),
		ReachAtBudget: c.ReachAtBudget, SuccessRate: c.SuccessRate, Final: c.Final}
}

// assembleSurface reassembles a surface job set's results, in job
// order, into a Surface. Both surfaces are row-major in (Rhos, Grid)
// order: an analytic point job returns a 1-point []optimize.Point, a
// simulated one a pointCell.
func assembleSurface(pre Preset, simulated bool, results []engine.Result) (*Surface, error) {
	g := len(pre.Grid)
	if len(results) != len(pre.Rhos)*g {
		return nil, fmt.Errorf("experiments: %d point results for a %dx%d surface",
			len(results), len(pre.Rhos), g)
	}
	pts := make([]optimize.Point, len(results))
	if simulated {
		cells, err := resultValues[pointCell](results)
		if err != nil {
			return nil, err
		}
		for k, c := range cells {
			pts[k] = c.point(pre.Grid[k%g])
		}
	} else {
		rows, err := resultValues[[]optimize.Point](results)
		if err != nil {
			return nil, err
		}
		for k, row := range rows {
			if len(row) != 1 {
				return nil, fmt.Errorf("experiments: job %q returned %d points, want 1",
					results[k].Name, len(row))
			}
			pts[k] = row[0]
		}
	}
	s := &Surface{Pre: pre, Simulated: simulated}
	for i := range pre.Rhos {
		s.Points = append(s.Points, pts[i*g:(i+1)*g:(i+1)*g])
	}
	return s, nil
}

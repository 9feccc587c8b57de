package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"sensornet/internal/analytic"
	"sensornet/internal/engine"
	"sensornet/internal/optimize"
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

// encodePoints serialises a surface row for the disk cache layer.
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
// row. The job's value is a 1-element []optimize.Point so the row cache
// codec is shared.
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

// assembleSurface reassembles a surface job set's results, in job
// order, into a Surface: an analytic surface's point jobs (one 1-point
// []optimize.Point each, row-major in (Rhos, Grid) order), or a
// simulated surface's row jobs (one row per density).
func assembleSurface(pre Preset, simulated bool, results []engine.Result) (*Surface, error) {
	rows, err := resultValues[[]optimize.Point](results)
	if err != nil {
		return nil, err
	}
	s := &Surface{Pre: pre, Simulated: simulated}
	if simulated {
		s.Points = rows
		return s, nil
	}
	if len(rows) != len(pre.Rhos)*len(pre.Grid) {
		return nil, fmt.Errorf("experiments: %d point results for a %dx%d surface",
			len(rows), len(pre.Rhos), len(pre.Grid))
	}
	for i := range pre.Rhos {
		row := make([]optimize.Point, len(pre.Grid))
		for j, pts := range rows[i*len(pre.Grid) : (i+1)*len(pre.Grid)] {
			if len(pts) != 1 {
				return nil, fmt.Errorf("experiments: job %q returned %d points, want 1",
					results[i*len(pre.Grid)+j].Name, len(pts))
			}
			row[j] = pts[0]
		}
		s.Points = append(s.Points, row)
	}
	return s, nil
}

// simRowJob builds the cached job computing one simulated surface row.
// Replications inside the row run through sim.RunMany bounded by
// `workers`, so the engine's worker count composes with replication
// parallelism. The worker count is deliberately excluded from the key:
// it changes scheduling, never results.
func simRowJob(pre Preset, rho float64, workers int) engine.Job {
	cfg := pre.SimConfig(rho)
	c := pre.Constraints
	return engine.JobFunc{
		JobName: fmt.Sprintf("sim-row(rho=%g)", rho),
		Key: cellKey("sim-row", cfg, cfg.Model,
			pre.Grid, c.Latency, c.Reach, c.Budget, pre.Runs),
		EncodeFn: encodePoints,
		DecodeFn: decodePoints,
		Fn: func(ctx context.Context) (any, error) {
			return optimize.SweepSim(ctx, cfg, pre.Grid, c, pre.Runs, workers)
		},
	}
}

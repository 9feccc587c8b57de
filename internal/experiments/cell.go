package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"sensornet/internal/analytic"
	"sensornet/internal/engine"
	"sensornet/internal/optimize"
	"sensornet/internal/sim"
)

// cell is one replicated cell: the mean, over runs replications, of one
// simulation configuration's per-run outcomes. Every simulated study is
// a keyed set of cells.
type cell struct {
	name, key string
	cfg       sim.Config
	runs      int
	// levels are the constraint levels the cell's aggregate reads its
	// runs at: every aggregate reads reachability at levels.Latency, and
	// a surface point also reads Reach and Budget.
	levels optimize.Constraints
	// replicate maps replication i to its configuration. Nil keeps sim's
	// own Seed+i ladder (sim.ReplicationConfig): cells built from one
	// preset seed then share every replication's deployment (common
	// random numbers), because a run consumes its deployment stream
	// before any protocol- or channel-dependent draw.
	replicate func(cfg sim.Config, i int) (sim.Config, error)
	// pool, when non-nil, shares the deployments of the cell's runs
	// with the other cells of its job set, each run checking the shared
	// build against its own replayed placement; only cells on sim's own
	// Seed+i ladder (nil replicate) take one. Nil runs sim.Run.
	pool *sim.Pool
}

// poolLimit bounds the bytes of built deployments one job set's pool
// keeps (a variable only so tests can lower it).
var poolLimit int64 = 256 << 20

// newPool returns the deployment pool of one job set.
func newPool() *sim.Pool { return sim.NewPool(poolLimit) }

// aggregate is a study's per-cell mean: add accumulates one run, read
// at the cell's constraint levels, and div divides every sum by the run
// count once all runs are in.
type aggregate[T any] interface {
	*T
	add(res *sim.Result, levels optimize.Constraints)
	div(n float64)
}

// cellJob builds the cached engine job computing c's aggregate T and
// registers its runs with c's pool.
func cellJob[T any, A aggregate[T]](c cell) engine.Job {
	if c.pool != nil {
		for i := 0; i < c.runs; i++ {
			c.pool.Register(sim.ReplicationConfig(c.cfg, i))
		}
	}
	return engine.JobFunc{
		JobName:  c.name,
		Key:      c.key,
		EncodeFn: encodeCell[T],
		DecodeFn: decodeCell[T],
		Fn: func(ctx context.Context) (any, error) {
			if err := checkRuns("a cell", c.runs); err != nil {
				return nil, err
			}
			var agg T
			for i := 0; i < c.runs; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				run, err := c.config(i)
				if err != nil {
					return nil, err
				}
				res, err := c.pool.Run(run)
				if err != nil {
					return nil, err
				}
				A(&agg).add(res, c.levels)
			}
			A(&agg).div(float64(c.runs))
			return agg, nil
		},
	}
}

// config is the configuration of replication i.
func (c cell) config(i int) (sim.Config, error) {
	if c.replicate == nil {
		return sim.ReplicationConfig(c.cfg, i), nil
	}
	return c.replicate(c.cfg, i)
}

// encodeCell and decodeCell are the cell codec: every aggregate field is
// finite, so the struct round-trips through the disk cache's JSON layer
// directly.
func encodeCell[T any](v any) ([]byte, error) {
	agg, ok := v.(T)
	if !ok {
		return nil, fmt.Errorf("experiments: expected %T, got %T", agg, v)
	}
	return json.Marshal(agg)
}

func decodeCell[T any](data []byte) (any, error) {
	var agg T
	err := json.Unmarshal(data, &agg)
	return agg, err
}

// cellKey fingerprints a cell: its kind, the simulation fields every
// study shares (with the channel model spelled as the study has always
// spelled it), then the study's own identity parts.
func cellKey(kind string, cfg sim.Config, model any, parts ...any) string {
	return engine.Fingerprint(append([]any{kind, CacheSalt,
		cfg.P, cfg.R, cfg.Rho, cfg.N, cfg.S, model, cfg.Seed,
		cfg.Async, cfg.MaxPhases}, parts...)...)
}

// keyedCell is the cell running cfg, protocol included, for runs
// replications on pool and reading reachability at deadline, keyed by
// kind and every one of those inputs (the protocol by its type and
// exact parameters).
func keyedCell(kind, name string, cfg sim.Config, runs int, deadline float64, pool *sim.Pool) cell {
	return cell{name: name, cfg: cfg, runs: runs, pool: pool,
		levels: optimize.Constraints{Latency: deadline},
		key: cellKey(kind, cfg, cfg.Model,
			fmt.Sprintf("%T%v", cfg.Protocol, cfg.Protocol), deadline, runs)}
}

// study is a keyed job set and the figure its results assemble into,
// results in job order.
type study interface {
	jobs() []engine.Job
	figure(results []engine.Result) (*FigureResult, error)
}

// runStudies is the one figure path: it runs the union of the studies'
// job sets on eng as one batch, then draws each study's figure from its
// own results. The draws run concurrently, up to eng's worker count,
// on a private engine, so eng sees only the job set's events.
func runStudies(ctx context.Context, eng *engine.Engine, studies []study) ([]*FigureResult, error) {
	jobs, at := unionJobs(studies)
	results, err := runJobs(ctx, eng, jobs)
	if err != nil {
		return nil, err
	}
	own := make([][]engine.Result, len(studies))
	for i, positions := range at {
		for _, k := range positions {
			own[i] = append(own[i], results[k])
		}
	}
	return engine.Map(ctx, engine.New(engine.Config{Workers: eng.Workers()}), "draw", studies,
		func(_ context.Context, st study, i int) (*FigureResult, error) {
			return st.figure(own[i])
		})
}

// unionJobs merges the studies' job sets into one, deduplicated by
// fingerprint in first-seen order; at[i][j] is the union position of
// study i's job j.
func unionJobs(studies []study) (jobs []engine.Job, at [][]int) {
	seen := map[string]int{}
	at = make([][]int, len(studies))
	for i, st := range studies {
		for _, job := range st.jobs() {
			fp := job.Fingerprint()
			k, ok := seen[fp]
			if !ok {
				k = len(jobs)
				jobs = append(jobs, job)
				if fp != "" {
					seen[fp] = k
				}
			}
			at[i] = append(at[i], k)
		}
	}
	return jobs, at
}

// cellStudy is a study whose jobs are cells holding T: draw turns their
// values, in job order, into the figure.
type cellStudy[T any] struct {
	cells []engine.Job
	draw  func([]T) (*FigureResult, error)
}

func (st cellStudy[T]) jobs() []engine.Job { return st.cells }

func (st cellStudy[T]) figure(results []engine.Result) (*FigureResult, error) {
	aggs, err := resultValues[T](results)
	if err != nil {
		return nil, err
	}
	return st.draw(aggs)
}

// resultValues reads the typed values out of job results, in job
// order.
func resultValues[T any](results []engine.Result) ([]T, error) {
	out := make([]T, len(results))
	for i, r := range results {
		v, ok := r.Value.(T)
		if !ok {
			return nil, fmt.Errorf("experiments: job %q returned %T, want %T", r.Name, r.Value, v)
		}
		out[i] = v
	}
	return out, nil
}

// checkRuns rejects a study without replications: a cell's mean needs
// at least one run.
func checkRuns(study string, runs int) error {
	if runs < 1 {
		return fmt.Errorf("experiments: %s needs Runs >= 1, got %d", study, runs)
	}
	return nil
}

// checkDensity rejects a study density no deployment can place.
func checkDensity(study string, rho float64) error {
	if !(rho > 0) || math.IsInf(rho, 1) {
		return fmt.Errorf("experiments: %s density %g not a positive finite number", study, rho)
	}
	return nil
}

// capHorizon caps an unset MaxPhases near the latency budget (twice it,
// at least 10 phases), so node faults land inside the broadcast window
// instead of long after it settles, and so every scheme is compared over
// the same horizon.
func capHorizon(pre Preset) Preset {
	if pre.MaxPhases == 0 {
		pre.MaxPhases = max(10, 2*int(pre.Constraints.Latency))
	}
	return pre
}

// calibrateLaw fits the optimal-probability law p* = C/ρ that the
// law-tuned PB and the degree-adaptive scheme take their parameters
// from.
func calibrateLaw(pre Preset) (analytic.OptimalProbabilityLaw, error) {
	return analytic.CalibrateLaw(pre.P, pre.S, 60, pre.Constraints.Latency, 0.02)
}

// settlePhase returns the last phase with a first reception (0 when the
// broadcast never leaves the source).
func settlePhase(phaseNew []int) float64 {
	last := 0
	for i, n := range phaseNew {
		if n > 0 {
			last = i + 1
		}
	}
	return float64(last)
}

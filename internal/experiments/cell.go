package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"sensornet/internal/analytic"
	"sensornet/internal/engine"
	"sensornet/internal/sim"
)

// cell is one replicated cell: the mean, over runs replications, of one
// simulation configuration's per-run outcomes. Every simulated study
// besides the surfaces is a keyed set of cells.
type cell struct {
	name, key string
	cfg       sim.Config
	runs      int
	// deadline is the phase at which the cell reads reachability.
	deadline float64
	// replicate maps replication i to its configuration. Nil keeps sim's
	// own Seed+i ladder (sim.ReplicationConfig): cells built from one
	// preset seed then share every replication's deployment (common
	// random numbers), because a run consumes its deployment stream
	// before any protocol- or channel-dependent draw.
	replicate func(cfg sim.Config, i int) (sim.Config, error)
}

// aggregate is a study's per-cell mean: add accumulates one run, div
// divides every sum by the run count once all runs are in.
type aggregate[T any] interface {
	*T
	add(res *sim.Result, deadline float64)
	div(n float64)
}

// cellJob builds the cached engine job computing c's aggregate T.
func cellJob[T any, A aggregate[T]](c cell) engine.Job {
	return engine.JobFunc{
		JobName:  c.name,
		Key:      c.key,
		EncodeFn: encodeCell[T],
		DecodeFn: decodeCell[T],
		Fn: func(ctx context.Context) (any, error) {
			var agg T
			for i := 0; i < c.runs; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				run, err := c.config(i)
				if err != nil {
					return nil, err
				}
				res, err := sim.Run(run)
				if err != nil {
					return nil, err
				}
				A(&agg).add(res, c.deadline)
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
// replications and reading reachability at deadline, keyed by kind and
// every one of those inputs (the protocol by its type and exact
// parameters).
func keyedCell(kind, name string, cfg sim.Config, runs int, deadline float64) cell {
	return cell{name: name, cfg: cfg, runs: runs, deadline: deadline,
		key: cellKey(kind, cfg, cfg.Model,
			fmt.Sprintf("%T%v", cfg.Protocol, cfg.Protocol), deadline, runs)}
}

// study is a keyed job set and the figure its results assemble into,
// results in job order.
type study interface {
	jobs() []engine.Job
	figure(ctx context.Context, results []engine.Result) (*FigureResult, error)
}

// runStudy returns the function that runs a just-built study's jobs on
// eng and assembles its figure, passing a build error straight through:
// runStudy(ctx, eng)(newStudy(...)).
func runStudy(ctx context.Context, eng *engine.Engine) func(study, error) (*FigureResult, error) {
	return func(st study, err error) (*FigureResult, error) {
		if err != nil {
			return nil, err
		}
		results, err := runJobs(ctx, eng, st.jobs())
		if err != nil {
			return nil, err
		}
		return st.figure(ctx, results)
	}
}

// cellStudy is a study whose jobs are cells averaging T: draw turns
// their aggregates, in job order, into the figure.
type cellStudy[T any] struct {
	cells []engine.Job
	draw  func([]T) *FigureResult
}

func (st cellStudy[T]) jobs() []engine.Job { return st.cells }

func (st cellStudy[T]) figure(_ context.Context, results []engine.Result) (*FigureResult, error) {
	aggs, err := resultValues[T](results)
	if err != nil {
		return nil, err
	}
	return st.draw(aggs), nil
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

package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"sensornet/internal/deploy"
	"sensornet/internal/engine"
	"sensornet/internal/metrics"
)

// Aggregate is the cross-run summary RunMany produces: per-run metric
// samples plus the pointwise-mean timeline, mirroring how the paper
// averages 30 random runs per configuration.
type Aggregate struct {
	// Runs holds the individual run results, in seed order.
	Runs []*Result
	// Mean is the pointwise-average timeline over all runs.
	Mean metrics.Timeline
}

// ReplicationConfig returns the configuration of replication i.
// Per-replication seeds Seed..Seed+runs-1 are RunMany's documented
// public contract (the paper's 30-run averages), and the common-random-
// numbers ladder the optimizer and the experiment cells rely on.
func ReplicationConfig(cfg Config, i int) Config {
	c := cfg
	//lint:ignore seedderive seeds Seed..Seed+runs-1 are RunMany's documented public contract (paper's 30-run averages)
	c.Seed = cfg.Seed + int64(i)
	return c
}

// RunMany executes `runs` independent simulations with seeds Seed,
// Seed+1, ... and aggregates them. Runs execute in parallel on an
// engine worker pool, bounded by `workers` (<= 0 means one worker per
// CPU, the engine's default). Replications not yet started when ctx is
// cancelled are skipped and the context's error is returned (wrapped,
// so errors.Is(err, context.Canceled) holds). Per-replication seeds
// (Seed+i) and the aggregation order are index-derived, so the
// aggregate is identical for any worker count.
//
// The fan-out runs on an internal/engine pool, inheriting its panic
// recovery (a panicking replication surfaces as an error instead of
// crashing the process).
func RunMany(ctx context.Context, cfg Config, runs, workers int) (*Aggregate, error) {
	return runMany(ctx, cfg, runs, workers, nil)
}

// ReplicationDeployments samples the deployment each replication
// i = 0..runs-1 would use, one per replication, without running
// anything. The deployment of replication i derives from the
// replication's own seed (Seed+i) through a dedicated stream, so it is
// independent of the protocol draws and can be shared across
// configurations that vary only protocol parameters: running
// Run(replication i's config with Deployment = deps[i]) for two
// probabilities compares them on identical fields — common random
// numbers for the deployment component. SweepSim applies exactly this.
func ReplicationDeployments(cfg Config, runs int) ([]*deploy.Deployment, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("sim: runs must be > 0, got %d", runs)
	}
	cfg.applyDefaults()
	out := make([]*deploy.Deployment, runs)
	for i := range out {
		seed := ReplicationConfig(cfg, i).Seed
		rng := rand.New(rand.NewSource(engine.DeriveSeed(seed, "sim", "deployment")))
		d, err := deploy.Generate(deployConfig(&cfg), rng)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// RunManyDeployments is RunMany with a pre-sampled deployment per
// replication (deps[i] for replication i, which keeps seed Seed+i for
// its protocol draws). The replication count is len(deps). Use
// ReplicationDeployments to sample the slice once and share it across
// several RunManyDeployments calls that vary protocol parameters.
func RunManyDeployments(ctx context.Context, cfg Config, deps []*deploy.Deployment, workers int) (*Aggregate, error) {
	return runMany(ctx, cfg, len(deps), workers, deps)
}

func runMany(ctx context.Context, cfg Config, runs, workers int, deps []*deploy.Deployment) (*Aggregate, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("sim: runs must be > 0, got %d", runs)
	}
	if workers > runs {
		workers = runs
	}
	eng := engine.New(engine.Config{Workers: workers})
	idx := make([]int, runs)
	for i := range idx {
		idx[i] = i
	}
	results, err := engine.Map(ctx, eng, "sim-replication", idx,
		func(ctx context.Context, i, _ int) (*Result, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c := ReplicationConfig(cfg, i)
			if deps != nil {
				c.Deployment = deps[i]
			}
			return Run(c)
		})
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("sim: aborted after cancellation: %w", context.Cause(ctx))
		}
		return nil, err
	}
	agg := &Aggregate{Runs: results}
	tls := make([]metrics.Timeline, runs)
	for i, r := range results {
		tls[i] = r.Timeline
	}
	agg.Mean = metrics.MeanTimeline(tls)
	return agg, nil
}

// ReachabilityAtPhase returns the per-run samples of metric 1.
func (a *Aggregate) ReachabilityAtPhase(l float64) []float64 {
	out := make([]float64, len(a.Runs))
	for i, r := range a.Runs {
		out[i] = r.Timeline.ReachabilityAtPhase(l)
	}
	return out
}

// LatencyToReach returns the per-run samples of metric 3; infeasible
// runs yield NaN.
func (a *Aggregate) LatencyToReach(target float64) []float64 {
	out := make([]float64, len(a.Runs))
	for i, r := range a.Runs {
		if l, ok := r.Timeline.LatencyToReach(target); ok {
			out[i] = l
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// BroadcastsToReach returns the per-run samples of metric 4; infeasible
// runs yield NaN.
func (a *Aggregate) BroadcastsToReach(target float64) []float64 {
	out := make([]float64, len(a.Runs))
	for i, r := range a.Runs {
		if b, ok := r.Timeline.BroadcastsToReach(target); ok {
			out[i] = b
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// ReachabilityAtBudget returns the per-run samples of metric 5.
func (a *Aggregate) ReachabilityAtBudget(budget float64) []float64 {
	out := make([]float64, len(a.Runs))
	for i, r := range a.Runs {
		out[i] = r.Timeline.ReachabilityAtBudget(budget)
	}
	return out
}

// SuccessRates returns the per-run mean broadcast success rates.
func (a *Aggregate) SuccessRates() []float64 {
	out := make([]float64, len(a.Runs))
	for i, r := range a.Runs {
		out[i] = r.SuccessRate
	}
	return out
}

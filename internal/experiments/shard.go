package experiments

import (
	"context"
	"errors"
	"fmt"

	"sensornet/internal/engine"
)

// errShardedSurface guards the figure-assembly entry points against
// sharded engines: a shard owns only part of the job set, so assembling
// a full figure from its results is impossible by construction.
var errShardedSurface = errors.New(
	"experiments: sharded engine computes jobs, it does not assemble figures: run FigureJobs through RunShard, then merge with an unsharded cache-only engine")

// runJobs runs a figure's complete job set on eng, refusing engines
// whose results cannot assemble into the figure.
func runJobs(ctx context.Context, eng *engine.Engine, jobs []engine.Job) ([]engine.Result, error) {
	if eng.Shard().Sharded() {
		return nil, errShardedSurface
	}
	return eng.Run(ctx, jobs)
}

// SurfaceJobs returns the cacheable job set behind a preset's surface —
// the unit the shard layer distributes: one job per (density,
// probability) point, row-major in (Rhos, Grid) order. The jobs (and
// their fingerprints) are exactly those AnalyticSurfaceCtx/SimSurfaceCtx
// submit, so shard processes and the merge process address the same
// cache entries. workers is unused: a simulated point runs its
// replications in turn, and parallelism comes from the engine's
// workers.
func SurfaceJobs(pre Preset, simulated bool, workers int) []engine.Job {
	if simulated {
		return simPointJobs(pre, newPool())
	}
	return analyticPointJobs(pre, pre.AnalyticConfig)
}

// ShardReport summarises one shard process's pass over a job set.
type ShardReport struct {
	// Spec is the engine's shard assignment.
	Spec engine.ShardSpec
	// Jobs is the size of the full job set; Owned the subset assigned
	// to this shard; Skipped the jobs left to other shards.
	Jobs, Owned, Skipped int
	// Computed counts owned jobs executed this pass; CacheHits the
	// owned jobs already present in the shared cache (a resumed or
	// re-run shard).
	Computed, CacheHits int
}

// String renders the report as the one-line summary the -shard CLI
// prints.
func (r ShardReport) String() string {
	return fmt.Sprintf("shard %s: %d/%d jobs owned (%d computed, %d cache hits, %d left to other shards)",
		r.Spec, r.Owned, r.Jobs, r.Computed, r.CacheHits, r.Skipped)
}

// RunShard drains a job set through a shard-configured engine: owned
// jobs compute (or cache-hit) into the shared cache, unowned jobs are
// skipped. The report describes what happened; the error, if any, is
// the engine's. Results are deliberately not assembled — the merge
// step does that from the cache once every shard has run.
func RunShard(ctx context.Context, eng *engine.Engine, jobs []engine.Job) (*ShardReport, error) {
	results, err := eng.Run(ctx, jobs)
	rep := &ShardReport{Spec: eng.Shard(), Jobs: len(jobs)}
	for _, res := range results {
		switch {
		case res.Skipped:
			rep.Skipped++
		case res.FromCache:
			rep.Owned++
			rep.CacheHits++
		case res.Err == nil && res.Attempts > 0:
			rep.Owned++
			rep.Computed++
		}
	}
	return rep, err
}

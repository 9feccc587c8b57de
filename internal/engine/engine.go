package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterises an Engine.
type Config struct {
	// Workers bounds job concurrency; <= 0 means runtime.GOMAXPROCS.
	Workers int
	// Timeout bounds each job's run; 0 means no per-job timeout.
	Timeout time.Duration
	// Cache, when non-nil, short-circuits jobs whose fingerprint has a
	// stored result and stores fresh results after success.
	Cache *Cache
	// Shard, when Sharded(), restricts execution to the jobs this
	// process owns (assignment by fingerprint content hash, see
	// ShardSpec): unowned cacheable jobs come back Skipped without
	// executing. Uncacheable jobs are always owned.
	Shard ShardSpec
	// CacheOnly forbids computation of cacheable jobs: a cache miss
	// yields a Missing result instead of executing, and Run returns a
	// *MissingError aggregating every such job. The merge and serve
	// paths use this to guarantee they never recompute shard work.
	// Uncacheable jobs (empty fingerprint) still execute.
	CacheOnly bool
	// Budget, when non-nil on a CacheOnly engine, turns strict
	// never-recompute into admission-controlled write-through: a cache
	// miss may execute (and publish) the job if the budget admits it;
	// an exhausted budget degrades to the Missing behaviour above.
	// Every computed job pays one token: the engine does not coalesce
	// identical jobs across concurrent batches, so a caller that races
	// the same cold fingerprints coalesces above the engine, as serve
	// does per table. Ignored when CacheOnly is false.
	Budget *Budget
	// OnEvent, when non-nil, observes the engine's progress events.
	// It is called from worker goroutines and must be cheap and
	// concurrency-safe.
	OnEvent func(Event)
}

// EventKind labels an engine progress event.
type EventKind uint8

const (
	// EventStart fires when a job begins executing.
	EventStart EventKind = iota
	// EventDone fires when a job returns (ok or failed).
	EventDone
	// EventCacheHit fires when a job is satisfied from the cache.
	EventCacheHit
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventDone:
		return "done"
	case EventCacheHit:
		return "cache-hit"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one engine progress notification.
type Event struct {
	Kind     EventKind
	Job      string
	Worker   int
	Duration time.Duration
	Err      error
}

// Result is the outcome of one job.
type Result struct {
	// Name is the job's Name().
	Name string
	// Value is the job's computed (or cached) result.
	Value any
	// Err is the job's final error, nil on success.
	Err error
	// Attempts is 1 when the job executed and 0 otherwise (a cache hit,
	// a skipped or missing job, or one cancelled before it started).
	Attempts int
	// Duration is the job's execution time.
	Duration time.Duration
	// FromCache marks results satisfied without executing the job.
	FromCache bool
	// Skipped marks jobs owned by another shard (Config.Shard): not
	// executed, Value nil.
	Skipped bool
	// Missing marks cacheable jobs a CacheOnly run could not satisfy:
	// not executed, Value nil.
	Missing bool
}

// Engine is a reusable concurrent job executor. It is safe for use
// from multiple goroutines; batches submitted concurrently share the
// cache and telemetry but are executed independently.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	batches int
	jobs    int
	ran     int
	hits    int
	wall    time.Duration
	busy    time.Duration
}

// New builds an Engine, applying Config defaults.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{cfg: cfg}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Cache returns the engine's cache (nil when caching is disabled).
func (e *Engine) Cache() *Cache { return e.cfg.Cache }

// Shard returns the engine's shard assignment (zero when unsharded).
func (e *Engine) Shard() ShardSpec { return e.cfg.Shard }

// CacheOnly reports whether the engine refuses to compute cacheable
// jobs.
func (e *Engine) CacheOnly() bool { return e.cfg.CacheOnly }

// Budget returns the engine's write-through admission gate (nil when
// the engine is strictly never-recompute).
func (e *Engine) Budget() *Budget { return e.cfg.Budget }

// Run executes the jobs on the worker pool and returns their results
// in submission order. On failure the first error encountered is
// returned (wrapped with the job name) alongside the partial results;
// outstanding jobs are cancelled. When ctx is cancelled, the returned
// error wraps the context's cause (errors.Is(err, context.Canceled)
// holds for a plain cancel).
//
// Concurrent Run calls are fully independent: each computes its own
// cache misses, so two batches racing one uncached fingerprint both
// run it, and the later Put stores an identical value.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	if len(jobs) == 0 {
		return nil, ctx.Err()
	}
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result, len(jobs))
	workers := e.cfg.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}

	// Workers take job indexes from one counter, checking ctx before
	// each take: jobs start in index order, each at most once, and a
	// failure or cancellation stops new takes, leaving the jobs never
	// taken with zero results.
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				idx := int(next.Add(1) - 1)
				if idx >= len(jobs) {
					return
				}
				res := e.runJob(ctx, worker, jobs[idx])
				results[idx] = res
				if res.Err != nil {
					fail(res.Err)
				}
			}
		}(w)
	}
	wg.Wait()

	e.account(len(jobs), results, time.Since(start))

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("engine: %w", context.Cause(ctx))
	}
	if err == nil && e.cfg.CacheOnly {
		var missing []MissingJob
		for i, r := range results {
			if r.Missing {
				missing = append(missing, MissingJob{
					Name: r.Name, Fingerprint: jobs[i].Fingerprint()})
			}
		}
		if len(missing) > 0 {
			err = &MissingError{Jobs: missing}
		}
	}
	return results, err
}

// runJob executes one job at most once, with cache lookup and a per-job
// timeout.
func (e *Engine) runJob(ctx context.Context, worker int, job Job) Result {
	name := job.Name()
	res := Result{Name: name}
	fp := job.Fingerprint()
	if !e.cfg.Shard.Owns(fp) {
		res.Skipped = true
		return res
	}
	encode, decode := codecOf(job)
	if v, ok := e.cfg.Cache.Get(fp, decode); ok {
		res.Value = v
		res.FromCache = true
		e.emit(Event{Kind: EventCacheHit, Job: name, Worker: worker})
		return res
	}
	if e.cfg.CacheOnly && fp != "" {
		// A cache-only miss computes only on a write-through budget's
		// token; the nil budget admits nothing. A denied miss is not an
		// error per job — the batch keeps draining so the merge step can
		// report every missing shard at once, and Run aggregates the
		// misses into one *MissingError.
		if !e.cfg.Budget.TryAcquire() {
			res.Missing = true
			return res
		}
		defer e.cfg.Budget.Release()
	}

	if err := ctx.Err(); err != nil {
		res.Err = jobError(name, context.Cause(ctx))
		return res
	}
	res.Attempts = 1
	e.emit(Event{Kind: EventStart, Job: name, Worker: worker})
	runCtx, cancelRun := ctx, context.CancelFunc(func() {})
	if e.cfg.Timeout > 0 {
		runCtx, cancelRun = context.WithTimeoutCause(ctx, e.cfg.Timeout,
			fmt.Errorf("job %q exceeded its %v timeout: %w", name, e.cfg.Timeout, context.DeadlineExceeded))
	}
	began := time.Now()
	v, err := safeRun(runCtx, job)
	cancelRun()
	res.Duration = time.Since(began)
	e.emit(Event{Kind: EventDone, Job: name, Worker: worker, Duration: res.Duration, Err: err})
	if err != nil {
		res.Err = jobError(name, err)
		return res
	}
	res.Value = v
	e.cfg.Cache.Put(fp, v, encode)
	return res
}

// safeRun executes one job, converting a panic into an error carrying
// the stack: a crashing job fails its own Result instead of taking down
// the whole campaign.
func safeRun(ctx context.Context, job Job) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return job.Run(ctx)
}

func codecOf(job Job) (func(any) ([]byte, error), func([]byte) (any, error)) {
	if c, ok := job.(Codec); ok {
		return c.ResultCodec()
	}
	return nil, nil
}

func (e *Engine) emit(ev Event) {
	if e.cfg.OnEvent != nil {
		e.cfg.OnEvent(ev)
	}
}

// account folds one batch's results into the engine's counters.
func (e *Engine) account(jobs int, results []Result, wall time.Duration) {
	var ran, hits int
	var busy time.Duration
	for _, r := range results {
		if r.FromCache {
			hits++
		}
		if r.Attempts > 0 {
			ran++
			busy += r.Duration
		}
	}
	e.mu.Lock()
	e.batches++
	e.jobs += jobs
	e.ran += ran
	e.hits += hits
	e.wall += wall
	e.busy += busy
	e.mu.Unlock()
}

// Stats summarises everything the engine has executed so far.
type Stats struct {
	Workers int
	Batches int
	Jobs    int
	// Ran counts the jobs that executed (ok or failed); the rest were
	// cache hits, skipped, missing, or cancelled before they started.
	Ran       int
	CacheHits int
	// Wall is the summed wall-clock time of all Run calls; Busy the
	// summed execution time of the jobs that ran; Utilization their
	// ratio normalised by the worker count.
	Wall        time.Duration
	Busy        time.Duration
	Utilization float64
}

// Stats snapshots the engine's cumulative telemetry.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		Workers:   e.cfg.Workers,
		Batches:   e.batches,
		Jobs:      e.jobs,
		Ran:       e.ran,
		CacheHits: e.hits,
		Wall:      e.wall,
		Busy:      e.busy,
	}
	e.mu.Unlock()
	if s.Wall > 0 && s.Workers > 0 {
		s.Utilization = float64(s.Busy) / (float64(s.Workers) * float64(s.Wall))
	}
	return s
}

// String renders the stats as a one-line summary; the job mean is
// Busy/Ran.
func (s Stats) String() string {
	mean := 0.0
	if s.Ran > 0 {
		mean = s.Busy.Seconds() / float64(s.Ran)
	}
	return fmt.Sprintf(
		"engine: %d jobs in %d batches on %d workers: wall %v, busy %v (%.0f%% utilization), %d cache hits, job mean %.3fs",
		s.Jobs, s.Batches, s.Workers, s.Wall.Round(time.Millisecond),
		s.Busy.Round(time.Millisecond), 100*s.Utilization, s.CacheHits, mean)
}

// Map fans fn out over items on the engine and returns the outputs in
// item order: the ordered-batch convenience used by sweep loops. Jobs
// created by Map are not cached (no fingerprint).
func Map[T, R any](ctx context.Context, e *Engine, name string, items []T,
	fn func(ctx context.Context, item T, i int) (R, error)) ([]R, error) {

	jobs := make([]Job, len(items))
	for i := range items {
		i := i
		jobs[i] = JobFunc{
			JobName: fmt.Sprintf("%s[%d]", name, i),
			Fn: func(ctx context.Context) (any, error) {
				return fn(ctx, items[i], i)
			},
		}
	}
	results, err := e.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]R, len(items))
	for i, r := range results {
		v, ok := r.Value.(R)
		if !ok {
			return nil, fmt.Errorf("engine: job %q returned %T", r.Name, r.Value)
		}
		out[i] = v
	}
	return out, nil
}

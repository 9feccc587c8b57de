// Package engine is the shared execution substrate for experiment
// campaigns and parameter sweeps: a worker pool that runs each Job
// once, concurrently, with context cancellation, per-job timeouts and
// panic recovery, and a content-addressed result cache so that
// re-running a campaign recomputes only what changed. Results always
// come back in submission order, so callers that assemble figures or
// CSV rows from a batch are byte-identical regardless of worker count.
package engine

import (
	"context"
	"fmt"
)

// Job is one unit of executable work.
type Job interface {
	// Name identifies the job in telemetry and error messages.
	Name() string
	// Fingerprint is a stable content-derived identity of the job's
	// configuration: two jobs with equal fingerprints must compute
	// equal results. An empty fingerprint disables caching.
	Fingerprint() string
	// Run computes the job's result. Implementations should honour ctx
	// cancellation at their natural granularity (e.g. between
	// replications).
	Run(ctx context.Context) (any, error)
}

// Codec lets a job participate in the on-disk cache layer by
// serialising its result to and from JSON. Either function may be nil,
// which keeps the job's cache entries in memory only.
type Codec interface {
	ResultCodec() (encode func(any) ([]byte, error), decode func([]byte) (any, error))
}

// JobFunc is the funcional Job (and Codec) implementation used by all
// in-repo callers.
type JobFunc struct {
	// JobName is the telemetry name; defaults to Key when empty.
	JobName string
	// Key is the job's fingerprint; empty disables caching.
	Key string
	// Fn computes the result.
	Fn func(ctx context.Context) (any, error)
	// EncodeFn/DecodeFn serialise the result for the disk cache layer;
	// leave nil for memory-only caching.
	EncodeFn func(any) ([]byte, error)
	DecodeFn func([]byte) (any, error)
}

// Name implements Job.
func (j JobFunc) Name() string {
	if j.JobName != "" {
		return j.JobName
	}
	return j.Key
}

// Fingerprint implements Job.
func (j JobFunc) Fingerprint() string { return j.Key }

// Run implements Job.
func (j JobFunc) Run(ctx context.Context) (any, error) { return j.Fn(ctx) }

// ResultCodec implements Codec.
func (j JobFunc) ResultCodec() (func(any) ([]byte, error), func([]byte) (any, error)) {
	return j.EncodeFn, j.DecodeFn
}

// jobError wraps a job failure with the job's name so batch errors are
// attributable.
func jobError(name string, err error) error {
	return fmt.Errorf("engine: job %q: %w", name, err)
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func constJob(name string, v any) JobFunc {
	return JobFunc{JobName: name, Fn: func(context.Context) (any, error) { return v, nil }}
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	eng := New(Config{Workers: 8})
	jobs := make([]Job, 50)
	for i := range jobs {
		jobs[i] = constJob(fmt.Sprintf("j%d", i), i)
	}
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Value != i {
			t.Fatalf("result[%d] = %v, want %d", i, r.Value, i)
		}
		if r.Attempts != 1 || r.FromCache {
			t.Fatalf("result[%d] unexpected execution record: %+v", i, r)
		}
	}
}

func TestRunEmptyBatch(t *testing.T) {
	eng := New(Config{})
	results, err := eng.Run(context.Background(), nil)
	if err != nil || results != nil {
		t.Fatalf("empty batch: %v, %v", results, err)
	}
}

func TestRunDefaultsWorkers(t *testing.T) {
	eng := New(Config{})
	if eng.Workers() <= 0 {
		t.Fatalf("default worker count %d", eng.Workers())
	}
}

func TestCancellationReturnsPromptlyWithWrappedCanceled(t *testing.T) {
	eng := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = JobFunc{
			JobName: fmt.Sprintf("block%d", i),
			Fn: func(ctx context.Context) (any, error) {
				if once.CompareAndSwap(false, true) {
					close(started)
				}
				<-ctx.Done()
				return nil, ctx.Err()
			},
		}
	}
	go func() {
		<-started
		cancel()
	}()
	deadline := time.Now().Add(5 * time.Second)
	_, err := eng.Run(ctx, jobs)
	if time.Now().After(deadline) {
		t.Fatal("cancellation did not return promptly")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestCacheHitSkipsRecompute(t *testing.T) {
	var computes atomic.Int64
	job := JobFunc{
		JobName: "counted",
		Key:     "counted-key",
		Fn: func(context.Context) (any, error) {
			computes.Add(1)
			return 42, nil
		},
	}
	eng := New(Config{Workers: 4, Cache: NewCache("", "test-salt")})
	for round := 0; round < 3; round++ {
		results, err := eng.Run(context.Background(), []Job{job})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Value != 42 {
			t.Fatalf("round %d: value %v", round, results[0].Value)
		}
		if wantCached := round > 0; results[0].FromCache != wantCached {
			t.Fatalf("round %d: FromCache = %v", round, results[0].FromCache)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("job computed %d times, want 1", n)
	}
	if s := eng.Stats(); s.CacheHits != 2 || s.Ran != 1 || s.Jobs != 3 {
		t.Fatalf("stats %+v, want 3 jobs: 1 ran, 2 cache hits", s)
	}
}

func TestDistinctFingerprintsDoNotShareEntries(t *testing.T) {
	cache := NewCache("", "salt")
	eng := New(Config{Workers: 1, Cache: cache})
	mk := func(key string, v int) Job {
		return JobFunc{JobName: key, Key: key,
			Fn: func(context.Context) (any, error) { return v, nil }}
	}
	results, err := eng.Run(context.Background(),
		[]Job{mk("a", 1), mk("b", 2), mk("a", 3)})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Value != 1 || results[1].Value != 2 {
		t.Fatalf("values %v %v", results[0].Value, results[1].Value)
	}
	// Same key as job 0: served from cache with job 0's result.
	if !results[2].FromCache || results[2].Value != 1 {
		t.Fatalf("duplicate key not deduplicated: %+v", results[2])
	}
}

// TestNonTransientFailureIsNotRetried: a failing job runs exactly once
// and its error, naming the job, fails the batch.
func TestNonTransientFailureIsNotRetried(t *testing.T) {
	var attempts atomic.Int64
	sentinel := errors.New("fatal")
	job := JobFunc{JobName: "fatal", Fn: func(context.Context) (any, error) {
		attempts.Add(1)
		return nil, sentinel
	}}
	eng := New(Config{Workers: 1})
	results, err := eng.Run(context.Background(), []Job{job})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "fatal") {
		t.Fatalf("error %q does not name the job", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("attempts = %d, want 1", n)
	}
	if results[0].Attempts != 1 {
		t.Fatalf("result attempts = %d, want 1", results[0].Attempts)
	}
	if s := eng.Stats(); s.Ran != 1 || s.Busy <= 0 {
		t.Fatalf("a failed job must count as run: %+v", s)
	}
}

func TestPerJobTimeout(t *testing.T) {
	job := JobFunc{JobName: "slow", Fn: func(ctx context.Context) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return "too late", nil
		}
	}}
	eng := New(Config{Workers: 1, Timeout: 10 * time.Millisecond})
	start := time.Now()
	_, err := eng.Run(context.Background(), []Job{job})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout not enforced promptly")
	}
}

func TestFirstErrorCancelsBatch(t *testing.T) {
	var ran atomic.Int64
	jobs := []Job{
		JobFunc{JobName: "boom", Fn: func(context.Context) (any, error) {
			return nil, errors.New("boom")
		}},
	}
	for i := 0; i < 64; i++ {
		jobs = append(jobs, JobFunc{JobName: fmt.Sprintf("later%d", i),
			Fn: func(ctx context.Context) (any, error) {
				ran.Add(1)
				return nil, nil
			}})
	}
	eng := New(Config{Workers: 1})
	_, err := eng.Run(context.Background(), jobs)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// With one worker the failing job runs first and cancels the feed:
	// the remaining jobs must not all have executed.
	if n := ran.Load(); n == 64 {
		t.Fatal("batch not cancelled after first error")
	}
}

func TestTelemetrySpansAndStats(t *testing.T) {
	var events atomic.Int64
	eng := New(Config{Workers: 2, OnEvent: func(Event) { events.Add(1) }})
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = JobFunc{JobName: fmt.Sprintf("t%d", i),
			Fn: func(context.Context) (any, error) {
				time.Sleep(2 * time.Millisecond)
				return nil, nil
			}}
	}
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Jobs != 6 || s.Batches != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Busy <= 0 || s.Wall <= 0 {
		t.Fatalf("no time accounted: %+v", s)
	}
	if s.Utilization <= 0 || s.Utilization > 1.01 {
		t.Fatalf("utilization %v out of range", s.Utilization)
	}
	if s.Ran != 6 || s.Busy < 6*2*time.Millisecond {
		t.Fatalf("ran %d jobs busy %v, want 6 jobs busy >= 12ms", s.Ran, s.Busy)
	}
	if events.Load() != 12 { // start + done per job
		t.Fatalf("events = %d, want 12", events.Load())
	}
	if str := s.String(); !strings.Contains(str, "6 jobs") || strings.Contains(str, "job mean 0.000s") {
		t.Fatalf("stats string %q", str)
	}
}

func TestMapPreservesOrderAndTypes(t *testing.T) {
	eng := New(Config{Workers: 4})
	items := []int{1, 2, 3, 4, 5, 6, 7, 8}
	out, err := Map(context.Background(), eng, "square", items,
		func(_ context.Context, x, _ int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := items[i] * items[i]; v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestHeapStaysFlatOverCachedJobs: the engine keeps per-batch counters,
// not a per-job log, so 200k cache-hit jobs through one engine leave
// its live heap where it started.
func TestHeapStaysFlatOverCachedJobs(t *testing.T) {
	const (
		batch   = 1000
		batches = 200
		bound   = 2 << 20 // bytes
	)
	eng := New(Config{Workers: 2, Cache: NewCache("", "soak-salt")})
	jobs := make([]Job, batch)
	for i := range jobs {
		jobs[i] = JobFunc{Key: fmt.Sprintf("soak-%d", i),
			Fn: func(context.Context) (any, error) { return i, nil }}
	}
	ctx := context.Background()
	if _, err := eng.Run(ctx, jobs); err != nil { // fill the cache
		t.Fatal(err)
	}
	before := liveHeap()
	for b := 0; b < batches; b++ {
		if _, err := eng.Run(ctx, jobs); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	if s := eng.Stats(); s.CacheHits != batch*batches || s.Ran != batch {
		t.Fatalf("stats %+v, want %d cache hits after %d runs", s, batch*batches, batch)
	}
	if grew := int64(after) - int64(before); grew >= bound {
		t.Fatalf("live heap grew %d bytes over %d cache-hit jobs, want < %d",
			grew, batch*batches, bound)
	}
}

// liveHeap returns the bytes of reachable heap objects after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

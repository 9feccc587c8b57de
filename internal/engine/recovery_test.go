package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestJobPanicBecomesError: a panicking job must surface as that job's
// error — naming the job and carrying the stack — not as a process
// crash, and the job must run once.
func TestJobPanicBecomesError(t *testing.T) {
	var runs atomic.Int64
	eng := New(Config{Workers: 2})
	jobs := []Job{JobFunc{
		JobName: "crasher",
		Fn: func(context.Context) (any, error) {
			runs.Add(1)
			panic("boom: nil deployment")
		},
	}}
	results, err := eng.Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("panicking job must fail the batch")
	}
	for _, want := range []string{"crasher", "panicked", "boom: nil deployment"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The stack trace should point at this test file.
	if !strings.Contains(results[0].Err.Error(), "recovery_test.go") {
		t.Errorf("job error carries no stack:\n%v", results[0].Err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("panicking job ran %d times, want 1", n)
	}
}

func diskJob(name, key string, fn func(context.Context) (any, error)) JobFunc {
	return JobFunc{
		JobName:  name,
		Key:      key,
		EncodeFn: func(v any) ([]byte, error) { return json.Marshal(v) },
		DecodeFn: func(b []byte) (any, error) {
			var v float64
			err := json.Unmarshal(b, &v)
			return v, err
		},
		Fn: fn,
	}
}

// TestTornCacheEntryRecovered: a truncated disk entry (a write cut off
// by a kill) degrades to a miss — logged, counted, recomputed, and
// overwritten with a good entry — instead of failing the job.
func TestTornCacheEntryRecovered(t *testing.T) {
	dir := t.TempDir()
	var computes atomic.Int64
	job := diskJob("row", "row-key", func(context.Context) (any, error) {
		computes.Add(1)
		return 4.5, nil
	})

	first := NewCache(dir, "salt")
	first.Warnf = func(string, ...any) {}
	if _, err := New(Config{Workers: 1, Cache: first}).Run(context.Background(), []Job{job}); err != nil {
		t.Fatal(err)
	}

	// Tear the entry: keep a prefix of the valid JSON.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries %v err %v", entries, err)
	}
	path := filepath.Join(dir, entries[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var warned atomic.Int64
	second := NewCache(dir, "salt")
	second.Warnf = func(string, ...any) { warned.Add(1) }
	results, err := New(Config{Workers: 1, Cache: second}).Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatalf("torn entry failed the job: %v", err)
	}
	if results[0].FromCache || results[0].Value != 4.5 {
		t.Fatalf("torn entry must recompute: %+v", results[0])
	}
	if computes.Load() != 2 {
		t.Fatalf("computes = %d, want 2", computes.Load())
	}
	if warned.Load() == 0 {
		t.Error("corruption was not logged")
	}
	if got := second.Stats().Corrupt; got != 1 {
		t.Errorf("Corrupt = %d, want 1", got)
	}

	// The recompute's Put healed the entry: a cold cache now hits disk.
	third := NewCache(dir, "salt")
	res, err := New(Config{Workers: 1, Cache: third}).Run(context.Background(), []Job{job})
	if err != nil || !res[0].FromCache {
		t.Fatalf("healed entry not served from disk: %+v, %v", res[0], err)
	}
}

// TestResumeFromDiskCache: a batch killed mid-flight leaves its
// completed jobs on disk; re-running the same batch against the same
// cache dir serves those from the cache and computes only the rest.
func TestResumeFromDiskCache(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	mkJobs := func(computes *atomic.Int64) []Job {
		jobs := make([]Job, n)
		for i := range jobs {
			v := float64(i)
			jobs[i] = diskJob(fmt.Sprintf("row%d", i), fmt.Sprintf("row-key-%d", i),
				func(context.Context) (any, error) {
					computes.Add(1)
					return v, nil
				})
		}
		return jobs
	}

	// First run: cancel after the third completed job. Put runs after
	// the EventDone emit, so completed jobs are on disk by the time the
	// next job reports.
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	var computed1 atomic.Int64
	killed := New(Config{
		Workers: 1,
		Cache:   NewCache(dir, "salt"),
		OnEvent: func(ev Event) {
			if ev.Kind == EventDone && done.Add(1) == 3 {
				cancel()
			}
		},
	})
	if _, err := killed.Run(ctx, mkJobs(&computed1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: err = %v, want context.Canceled", err)
	}
	if computed1.Load() >= n {
		t.Fatalf("kill came too late to test resumption: %d/%d computed", computed1.Load(), n)
	}

	// Second run, fresh engine and cold memory: completes, with the
	// already-computed rows served from disk.
	var computed2 atomic.Int64
	resumed := New(Config{Workers: 1, Cache: NewCache(dir, "salt")})
	results, err := resumed.Run(context.Background(), mkJobs(&computed2))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, r := range results {
		if r.Value != float64(i) {
			t.Fatalf("result[%d] = %v", i, r.Value)
		}
		if r.FromCache {
			hits++
		}
	}
	if hits < 2 {
		t.Errorf("resume used %d cached rows, want >= 2", hits)
	}
	// Every row is computed exactly once across both runs.
	if computed1.Load()+computed2.Load() != n {
		t.Errorf("rows computed %d+%d times, want %d total",
			computed1.Load(), computed2.Load(), n)
	}
}

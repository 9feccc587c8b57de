package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunTakesEachJobOnceInIndexOrder runs 1,000 jobs on 1, 2 and 8
// workers. Every job runs exactly once and results come back in
// submission order; when a job fails, or cancels the caller's ctx,
// workers stop taking jobs, so the taken jobs are a prefix that ends
// within a worker count of that job and every job past it keeps a zero
// result. Run it under -race.
func TestRunTakesEachJobOnceInIndexOrder(t *testing.T) {
	const n, stop = 1000, 600
	errBoom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		for _, tc := range []struct {
			name string
			// at is the job that ends the batch (-1: none, every job
			// runs), by failing or by cancelling the caller's ctx.
			at      int
			cancel  bool
			wantErr error
		}{
			{"all", -1, false, nil},
			{"failure", stop, false, errBoom},
			{"cancel", stop, true, context.Canceled},
		} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, tc.name), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var runs [n]atomic.Int32
				jobs := make([]Job, n)
				for i := range jobs {
					jobs[i] = JobFunc{JobName: fmt.Sprintf("job-%d", i), Fn: func(ctx context.Context) (any, error) {
						runs[i].Add(1)
						switch {
						case i == tc.at && tc.cancel:
							cancel()
						case i == tc.at:
							return nil, errBoom
						case tc.at >= 0 && i > tc.at:
							// Hold every later job until the batch
							// ends, so each worker holds at most one.
							<-ctx.Done()
							return nil, ctx.Err()
						}
						return i, nil
					}}
				}
				results, err := New(Config{Workers: workers}).Run(ctx, jobs)
				if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil) != (err == nil) {
					t.Fatalf("Run error %v, want %v", err, tc.wantErr)
				}
				if len(results) != n {
					t.Fatalf("%d results, want %d", len(results), n)
				}
				taken := 0
				for taken < n && results[taken].Name != "" {
					taken++
				}
				for i := range results {
					r, ran := results[i], runs[i].Load()
					switch {
					case ran > 1:
						t.Fatalf("job %d ran %d times", i, ran)
					case i >= taken && (r != Result{} || ran != 0):
						t.Fatalf("job %d past the taken prefix of %d ran %d times, result %+v", i, taken, ran, r)
					case i < taken && r.Name != fmt.Sprintf("job-%d", i):
						t.Fatalf("result %d is named %q", i, r.Name)
					case ran == 1 && r.Attempts != 1:
						t.Fatalf("job %d ran but its result counts %d attempts", i, r.Attempts)
					case ran == 1 && r.Err == nil && r.Value != i:
						t.Fatalf("result %d holds %v", i, r.Value)
					}
				}
				if tc.at < 0 {
					for i := range results {
						if runs[i].Load() != 1 || results[i].Err != nil {
							t.Fatalf("job %d: %d runs, error %v; want one clean run", i, runs[i].Load(), results[i].Err)
						}
					}
					return
				}
				if taken <= tc.at || taken > tc.at+workers {
					t.Fatalf("%d jobs taken; want the prefix to end past job %d and within %d workers of it", taken, tc.at, workers)
				}
				if runs[tc.at].Load() != 1 {
					t.Fatalf("job %d, which ends the batch, ran %d times", tc.at, runs[tc.at].Load())
				}
			})
		}
	}
}

// TestRunTakesNothingUnderCancelledContext: a ctx cancelled before Run
// stops the first take, so every result stays zero.
func TestRunTakesNothingUnderCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	jobs := make([]Job, 100)
	for i := range jobs {
		jobs[i] = JobFunc{JobName: "job", Fn: func(context.Context) (any, error) { ran.Add(1); return nil, nil }}
	}
	for _, workers := range []int{1, 2, 8} {
		results, err := New(Config{Workers: workers}).Run(ctx, jobs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Run error %v, want context.Canceled", workers, err)
		}
		for i, r := range results {
			if r != (Result{}) {
				t.Fatalf("workers=%d: result %d is %+v, want zero", workers, i, r)
			}
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a cancelled ctx", ran.Load())
	}
}

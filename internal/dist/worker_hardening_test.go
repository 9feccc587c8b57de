package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sensornet/internal/chaos"
	"sensornet/internal/engine"
)

// scriptedServer runs an httptest server over a handler func and
// returns its URL.
func scriptedServer(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

func testWorker(t *testing.T, url string, mutate func(*WorkerConfig)) *Worker {
	t.Helper()
	encode, decode := func(v any) ([]byte, error) { return json.Marshal(v) },
		func(b []byte) (any, error) {
			var v float64
			err := json.Unmarshal(b, &v)
			return v, err
		}
	cfg := WorkerConfig{
		ID:      "w-test",
		BaseURL: url,
		Engine:  engine.New(engine.Config{Workers: 1, Cache: engine.NewCache("", "salt")}),
		Jobs: []engine.Job{engine.JobFunc{
			Key:      "fp-1",
			Fn:       func(ctx context.Context) (any, error) { return 1.5, nil },
			EncodeFn: encode, DecodeFn: decode,
		}},
		PostBackoff: engine.BackoffPolicy{Base: time.Millisecond, Max: 2 * time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkerPostSetsChecksumAndRetriesAllFailures pins the rebuilt
// retry loop: the request carries HeaderBodySum, and a 400, a garbage
// body, and a 500 are each retried — under a hostile transport no
// single response is trusted evidence, and the protocol is idempotent.
func TestWorkerPostSetsChecksumAndRetriesAllFailures(t *testing.T) {
	var hits atomic.Int64
	url := scriptedServer(t, func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if got := r.Header.Get(HeaderBodySum); got == "" {
			t.Errorf("request %d missing %s", n, HeaderBodySum)
		}
		switch n {
		case 1:
			http.Error(w, "bad request", http.StatusBadRequest)
		case 2:
			//lint:ignore errdrop scripted test server
			_, _ = w.Write([]byte("{not json"))
		case 3:
			http.Error(w, "boom", http.StatusInternalServerError)
		default:
			writeJSON(w, http.StatusOK, HeartbeatResponse{Extended: true})
		}
	})
	w := testWorker(t, url, nil)
	var resp HeartbeatResponse
	if _, err := w.post(context.Background(), PathHeartbeat, HeartbeatRequest{Worker: "w-test"}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Extended || hits.Load() != 4 {
		t.Fatalf("resp %+v after %d hits, want success on hit 4", resp, hits.Load())
	}
}

// TestWorkerPostVerifiesResponseChecksum: a response whose body does
// not match its advertised sum is retried, not parsed.
func TestWorkerPostVerifiesResponseChecksum(t *testing.T) {
	var hits atomic.Int64
	url := scriptedServer(t, func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// Valid JSON a naive client would happily accept — but the
			// sum says the bytes were damaged in transit.
			w.Header().Set(HeaderBodySum, bodySum([]byte(`{"extended":true}`)))
			//lint:ignore errdrop scripted test server
			_, _ = w.Write([]byte(`{"extended":false}`))
			return
		}
		writeJSON(w, http.StatusOK, HeartbeatResponse{Extended: true})
	})
	w := testWorker(t, url, nil)
	var resp HeartbeatResponse
	if _, err := w.post(context.Background(), PathHeartbeat, HeartbeatRequest{Worker: "w-test"}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Extended || hits.Load() != 2 {
		t.Fatalf("resp %+v after %d hits, want retry then success", resp, hits.Load())
	}
}

// TestWorkerPostGivesUpAfterAttempts: a persistently failing endpoint
// exhausts PostAttempts and surfaces the last error.
func TestWorkerPostGivesUpAfterAttempts(t *testing.T) {
	var hits atomic.Int64
	url := scriptedServer(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	})
	w := testWorker(t, url, func(c *WorkerConfig) { c.PostAttempts = 3 })
	_, err := w.post(context.Background(), PathHeartbeat, HeartbeatRequest{Worker: "w-test"}, nil)
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("%d hits, want 3", hits.Load())
	}
}

// TestWorkerDrainingExit: a Draining lease response makes the worker
// exit cleanly with the drain recorded, not treat it as done or error.
func TestWorkerDrainingExit(t *testing.T) {
	url := scriptedServer(t, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, LeaseResponse{Draining: true})
	})
	w := testWorker(t, url, nil)
	rep, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained || rep.Leased != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if s := rep.String(); !strings.Contains(s, "[drained]") {
		t.Fatalf("report string %q does not mention the drain", s)
	}
}

// TestWorkerExitsOnResultAckTerminal pins the shutdown race fix: the
// worker whose result post completes the campaign (or resolves the
// last draining lease) learns it from the acknowledgment itself and
// exits without another lease poll — by then the coordinator's server
// may already be closed.
func TestWorkerExitsOnResultAckTerminal(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ack     ResultResponse
		drained bool
	}{
		{"done", ResultResponse{Accepted: true, Done: true}, false},
		{"draining", ResultResponse{Accepted: true, Draining: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var leasePolls atomic.Int64
			url := scriptedServer(t, func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case PathLease:
					leasePolls.Add(1)
					writeJSON(w, http.StatusOK, LeaseResponse{
						Jobs:    []JobSpec{{Name: "fp-1", Fingerprint: "fp-1"}},
						LeaseID: "lease-1", TTLMillis: 60000,
					})
				case PathResult:
					writeJSON(w, http.StatusOK, tc.ack)
				default:
					writeJSON(w, http.StatusOK, HeartbeatResponse{Extended: true})
				}
			})
			w := testWorker(t, url, nil)
			rep, err := w.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != 1 || rep.Drained != tc.drained {
				t.Fatalf("report = %+v, want 1 completed, drained=%v", rep, tc.drained)
			}
			if leasePolls.Load() != 1 {
				t.Fatalf("worker polled for a lease %d times, want exactly 1 (no poll after a terminal ack)", leasePolls.Load())
			}
		})
	}
}

// TestWorkerReLeaseAnsweredFromCache pins the idempotent re-lease
// path end to end on the worker side: when the coordinator grants the
// same job twice (its first lease expired after the result was
// computed but before the grant was observed), the second execution is
// served from the worker's own engine cache — one real computation,
// two posted results.
func TestWorkerReLeaseAnsweredFromCache(t *testing.T) {
	var executions atomic.Int64
	var leases atomic.Int64
	url := scriptedServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathLease:
			n := leases.Add(1)
			if n <= 2 {
				// The same job, twice: lease 1 "expired" coordinator-side
				// and was granted again.
				writeJSON(w, http.StatusOK, LeaseResponse{
					Jobs:    []JobSpec{{Name: "fp-1", Fingerprint: "fp-1"}},
					LeaseID: "lease-" + string(rune('0'+n)), TTLMillis: 60000,
				})
				return
			}
			writeJSON(w, http.StatusOK, LeaseResponse{Done: true})
		case PathResult:
			var req ResultRequest
			if decodeBody(w, r, &req) {
				writeJSON(w, http.StatusOK, ResultResponse{Accepted: true, Duplicate: leases.Load() > 1})
			}
		default:
			writeJSON(w, http.StatusOK, HeartbeatResponse{Extended: true})
		}
	})
	w := testWorker(t, url, func(c *WorkerConfig) {
		c.Jobs = []engine.Job{engine.JobFunc{
			Key: "fp-1",
			Fn: func(ctx context.Context) (any, error) {
				executions.Add(1)
				return 1.5, nil
			},
			EncodeFn: func(v any) ([]byte, error) { return json.Marshal(v) },
			DecodeFn: func(b []byte) (any, error) {
				var v float64
				err := json.Unmarshal(b, &v)
				return v, err
			},
		}}
	})
	rep, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 1 {
		t.Fatalf("job executed %d times, want 1 (re-lease must hit the cache)", executions.Load())
	}
	if rep.Completed != 2 || rep.FromCache != 1 {
		t.Fatalf("report = %+v, want 2 completed with 1 from cache", rep)
	}
}

// TestWorkerIdleWaitClamped: an empty lease's RetryMillis is clamped to
// [50ms, TTL/4] of the last granted TTL (30s before any lease), so a
// zero or negative hint cannot hot-spin, and an absurd hint (here after
// a lease response carrying a 200ms TTL) costs one short wait, not
// hours.
func TestWorkerIdleWaitClamped(t *testing.T) {
	clamp := testWorker(t, "http://unused.invalid", nil)
	for _, tc := range []struct {
		ttlMillis  int64
		hint, want time.Duration
	}{
		{0, -3 * time.Second, 50 * time.Millisecond},
		{0, 0, 50 * time.Millisecond},
		{0, 2 * time.Second, 2 * time.Second},
		{0, 99999999 * time.Millisecond, 7500 * time.Millisecond},
		{200, 2 * time.Second, 50 * time.Millisecond},
	} {
		clamp.ttlMillis = tc.ttlMillis
		if got := clamp.clampHint(tc.hint); got != tc.want {
			t.Errorf("TTL %dms, hint %v: wait %v, want %v", tc.ttlMillis, tc.hint, got, tc.want)
		}
	}

	var polls atomic.Int64
	url := scriptedServer(t, func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) == 1 {
			writeJSON(w, http.StatusOK, LeaseResponse{TTLMillis: 200, RetryMillis: 99999999})
			return
		}
		writeJSON(w, http.StatusOK, LeaseResponse{Done: true})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := testWorker(t, url, nil).Run(ctx); err != nil {
		t.Fatalf("worker run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v: the idle wait was not clamped to TTL/4", elapsed)
	}
	if polls.Load() != 2 {
		t.Fatalf("%d lease polls, want 2", polls.Load())
	}
}

// TestWorkerHostileRetryAfterBounded runs a full lease→compute→result
// round against a scripted coordinator that answers the result post
// with 429 and an absurd Retry-After ("999999" seconds), under the
// chaos hostile transport. The worker reads no retry hint from a
// failed post: a 429 is an ordinary failed attempt, retried on
// PostBackoff, so the campaign completes promptly despite the hostile
// hint plus the transport's drops, duplicates, and corruption.
func TestWorkerHostileRetryAfterBounded(t *testing.T) {
	var accepted atomic.Bool
	var resultHits atomic.Int64
	url := scriptedServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathLease:
			if accepted.Load() {
				writeJSON(w, http.StatusOK, LeaseResponse{Done: true})
				return
			}
			writeJSON(w, http.StatusOK, LeaseResponse{
				LeaseID: "L1", TTLMillis: 200,
				Jobs: []JobSpec{{Name: "j", Fingerprint: "fp-1"}},
			})
		case PathHeartbeat:
			writeJSON(w, http.StatusOK, HeartbeatResponse{Extended: true})
		case PathResult:
			if !accepted.Load() && resultHits.Add(1) <= 3 {
				w.Header().Set("Retry-After", "999999")
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
			accepted.Store(true)
			writeJSON(w, http.StatusOK, ResultResponse{Accepted: true, Done: true})
		default:
			http.NotFound(w, r)
		}
	})
	w := testWorker(t, url, func(c *WorkerConfig) {
		c.PostAttempts = 50
		c.Client = &http.Client{
			Timeout:   5 * time.Second,
			Transport: chaos.Wrap(http.DefaultTransport, chaos.Hostile(), 7),
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	rep, err := w.Run(ctx)
	if err != nil {
		t.Fatalf("worker run: %v (report %+v)", err, rep)
	}
	if rep.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (report %+v)", rep.Completed, rep)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("run took %v: a 429's Retry-After delayed the retry past PostBackoff", elapsed)
	}
}

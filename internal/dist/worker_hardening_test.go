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

// TestWorkerPostHonorsRetryAfter: a 429's Retry-After overrides the
// backoff schedule — the deferred post waits at least that long.
func TestWorkerPostHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	url := scriptedServer(t, func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		writeJSON(w, http.StatusOK, ResultResponse{Accepted: true})
	})
	w := testWorker(t, url, nil)
	start := time.Now()
	var resp ResultResponse
	if _, err := w.post(context.Background(), PathResult, ResultRequest{Worker: "w-test", Fingerprint: "fp-1"}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || hits.Load() != 2 {
		t.Fatalf("resp %+v after %d hits", resp, hits.Load())
	}
	// PostBackoff caps at 2ms here, so a ≥1s wait proves Retry-After won.
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("replay after %v, want ≥ 1s (Retry-After honored)", elapsed)
	}
}

// TestWorkerPostSubSecondRetryHint: against a real coordinator whose
// ingest window is 100ms, a deferred result post is replayed after the
// 429 body's millisecond hint, well under the whole-second Retry-After
// header the coordinator also sends.
func TestWorkerPostSubSecondRetryHint(t *testing.T) {
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Minute,
		IngestBurst: 1, IngestWindow: 100 * time.Millisecond}, jobsFor("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	w := testWorker(t, scriptedServer(t, c.ServeHTTP), nil)
	first, second := lease(t, c, "w-test"), lease(t, c, "w-test")
	// The first result takes the window's one slot, so the second post
	// meets a full window.
	if r, code := postResult(t, c, ResultRequest{Worker: "w-test", LeaseID: first.LeaseID,
		Fingerprint: first.Jobs[0].Fingerprint, Payload: []byte(`1`)}); code != http.StatusOK || !r.Accepted {
		t.Fatalf("first post: code %d resp %+v", code, r)
	}
	start := time.Now()
	var resp ResultResponse
	if _, err := w.post(context.Background(), PathResult, ResultRequest{Worker: "w-test",
		LeaseID: second.LeaseID, Fingerprint: second.Jobs[0].Fingerprint, Payload: []byte(`1`)}, &resp); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if s := c.Stats(); !resp.Accepted || s.Backpressured != 1 || s.Ingested != 2 {
		t.Fatalf("resp %+v, stats %+v: want one 429 then an accepted replay", resp, s)
	}
	if elapsed >= 500*time.Millisecond {
		t.Fatalf("replay after %v, want well under a second (the 100ms window's hint)", elapsed)
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

// TestRetryAfterClamped pins the clamp on the 429 retry hint: the body's
// retryMillis, else the Retry-After header, crosses an untrusted
// transport, so parsed values are forced into the coordinator's own
// [50ms, TTL/4] hint range — no multi-hour stalls from a corrupted
// digit, no hot spin from "0" or a negative.
func TestRetryAfterClamped(t *testing.T) {
	w := testWorker(t, "http://unused.invalid", nil)
	resp := func(v string) *http.Response {
		r := &http.Response{Header: http.Header{}}
		if v != "" {
			r.Header.Set("Retry-After", v)
		}
		return r
	}
	// Before any lease the TTL defaults to 30s, so the range is
	// [50ms, 7.5s].
	for _, tc := range []struct {
		header, body string
		want         time.Duration
	}{
		{"", "", 0},                                          // absent: fall back to computed backoff
		{"soon", "", 0},                                      // unparseable: same
		{"-3", "", 50 * time.Millisecond},                    // negative: clamp low, not ignore
		{"0", "", 50 * time.Millisecond},                     // zero would hot-spin
		{"2", "", 2 * time.Second},                           // in range: honored
		{"999999", "", 7500 * time.Millisecond},              // ~11 days: clamp to TTL/4
		{"1", `{"retryMillis":120}`, 120 * time.Millisecond}, // the body's exact wait wins
		{"1", `{"retryMillis":0}`, time.Second},              // no body hint: the header
		{"1", `{"retryMillis":`, time.Second},                // undecodable body: the header
		{"", `{"retryMillis":10}`, 50 * time.Millisecond},    // clamped like the header
		{"", `{"retryMillis":99999999}`, 7500 * time.Millisecond},
	} {
		if got := w.retryAfter(resp(tc.header), []byte(tc.body)); got != tc.want {
			t.Errorf("Retry-After %q, body %s: %v, want %v", tc.header, tc.body, got, tc.want)
		}
	}
	// After a lease granted TTLMillis=200 the ceiling tightens to 50ms.
	w.ttlMillis.Store(200)
	if got := w.retryAfter(resp("999999"), nil); got != 50*time.Millisecond {
		t.Errorf("post-lease clamp = %v, want 50ms", got)
	}
	if got := w.retryAfter(resp("2"), nil); got != 50*time.Millisecond {
		t.Errorf("in-range value above the tightened ceiling = %v, want 50ms", got)
	}
}

// TestWorkerIdleWaitClamped: an empty lease's RetryMillis goes through
// the same [50ms, TTL/4] clamp as a 429's hint, so an absurd hint
// (here after a lease response carrying a 200ms TTL) costs one short
// wait, not hours.
func TestWorkerIdleWaitClamped(t *testing.T) {
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
// round against a scripted coordinator that backpressures the result
// post with an absurd Retry-After ("999999" seconds), under the chaos
// hostile transport. Before the clamp a single such 429 stalled the
// worker for ~11 days; with it, every deferred post waits at most
// TTL/4, so the campaign completes promptly despite the hostile hint
// plus the transport's drops, duplicates, and corruption.
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
			writeJSON(w, http.StatusOK, HeartbeatResponse{Extended: true, TTLMillis: 200})
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
		t.Fatalf("run took %v: the Retry-After clamp did not bound the backpressure wait", elapsed)
	}
}

package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensornet/internal/engine"
)

// fakeSink is an in-memory engine.ResultSink that counts ingests per
// fingerprint, so tests can pin exactly-once delivery through the
// protocol layer.
type fakeSink struct {
	mu      sync.Mutex
	results map[string][]byte
	counts  map[string]int
	failFor map[string]bool // fingerprints whose ingest errors
}

func newFakeSink() *fakeSink {
	return &fakeSink{results: map[string][]byte{}, counts: map[string]int{}, failFor: map[string]bool{}}
}

func (s *fakeSink) HasResult(fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.results[fp]
	return ok
}

func (s *fakeSink) IngestResult(fp string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failFor[fp] {
		return fmt.Errorf("sink: injected ingest failure for %s", fp)
	}
	s.counts[fp]++
	s.results[fp] = append([]byte(nil), payload...)
	return nil
}

// ingests reports how many times a fingerprint's payload reached the
// sink.
func (s *fakeSink) ingests(fp string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[fp]
}

// fakeClock drives Config.Now deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func jobsFor(fps ...string) []engine.Job {
	var out []engine.Job
	for _, fp := range fps {
		out = append(out, engine.JobFunc{Key: fp})
	}
	return out
}

// call POSTs (or GETs, for status) one protocol message through the
// coordinator's public handler and decodes the response.
func call(t *testing.T, c *Coordinator, method, path string, req, resp any) int {
	t.Helper()
	return callCtx(t, context.Background(), c, method, path, req, resp)
}

// callCtx is call with a request context: a lease request that parks
// returns when ctx ends.
func callCtx(t *testing.T, ctx context.Context, c *Coordinator, method, path string, req, resp any) int {
	t.Helper()
	var body bytes.Buffer
	if req != nil {
		if err := json.NewEncoder(&body).Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	hr := httptest.NewRequest(method, path, &body).WithContext(ctx)
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, hr)
	if resp != nil && (rec.Code == http.StatusOK || rec.Code == http.StatusNotFound) {
		if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, path, rec.Body.Bytes(), err)
		}
	}
	return rec.Code
}

// testSeq numbers the lease requests the helpers send, so that each is
// a new request, never a replay, to the coordinator.
var testSeq atomic.Int64

// lease asks for a lease on one job.
func lease(t *testing.T, c *Coordinator, worker string) LeaseResponse {
	t.Helper()
	return batchLease(t, c, worker, 1)
}

// idleLease asks for a lease whose request context has already ended,
// so a request that finds nothing leasable is answered without parking.
func idleLease(t *testing.T, c *Coordinator, worker string) LeaseResponse {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var resp LeaseResponse
	req := LeaseRequest{Worker: worker, Seq: testSeq.Add(1)}
	if code := callCtx(t, ctx, c, http.MethodPost, PathLease, req, &resp); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	return resp
}

func postResult(t *testing.T, c *Coordinator, req ResultRequest) (ResultResponse, int) {
	t.Helper()
	var resp ResultResponse
	code := call(t, c, http.MethodPost, PathResult, req, &resp)
	return resp, code
}

func isDone(c *Coordinator) bool {
	select {
	case <-c.Done():
		return true
	default:
		return false
	}
}

func TestLeaseLifecycle(t *testing.T) {
	clock := newFakeClock()
	sink := newFakeSink()
	c, err := NewCoordinator(Config{Sink: sink, LeaseTTL: 10 * time.Second, Now: clock.Now},
		jobsFor("a", "b"))
	if err != nil {
		t.Fatal(err)
	}

	l := lease(t, c, "w1")
	if l.Done || len(l.Jobs) == 0 || l.LeaseID == "" || l.TTLMillis != 10000 {
		t.Fatalf("first lease = %+v", l)
	}
	first := l.Jobs[0].Fingerprint

	resp, _ := postResult(t, c, ResultRequest{
		Worker: "w1", LeaseID: l.LeaseID, Fingerprint: first, Payload: []byte(`1.5`)})
	if !resp.Accepted || resp.Duplicate {
		t.Fatalf("result ack = %+v", resp)
	}
	if !sink.HasResult(first) {
		t.Fatal("sink missing the posted result")
	}
	if isDone(c) {
		t.Fatal("done with one job outstanding")
	}

	l2 := lease(t, c, "w1")
	if len(l2.Jobs) == 0 || l2.Jobs[0].Fingerprint == first {
		t.Fatalf("second lease = %+v", l2)
	}
	postResult(t, c, ResultRequest{
		Worker: "w1", LeaseID: l2.LeaseID, Fingerprint: l2.Jobs[0].Fingerprint, Payload: []byte(`2.5`)})
	if !isDone(c) {
		t.Fatal("not done after both results")
	}
	if l3 := lease(t, c, "w1"); !l3.Done {
		t.Fatalf("lease after completion = %+v", l3)
	}

	s := c.Stats()
	if s.Completed != 2 || s.Pending != 0 || s.Leased != 0 || s.Expired != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if len(s.Workers) != 1 || s.Workers[0].Completed != 2 || s.Workers[0].Leased != 2 {
		t.Fatalf("worker stats = %+v", s.Workers)
	}
}

// TestLeaseExpiryRequeues pins the failover path: a lease whose
// deadline passes without a heartbeat re-enqueues its job at the front
// of the queue, and another worker picks it up.
func TestLeaseExpiryRequeues(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Second, Now: clock.Now},
		jobsFor("a", "b"))
	if err != nil {
		t.Fatal(err)
	}

	l := lease(t, c, "dying")
	if len(l.Jobs) == 0 {
		t.Fatalf("lease = %+v", l)
	}

	// Within the TTL the job stays leased: a second worker gets the
	// *other* job, not this one.
	clock.Advance(500 * time.Millisecond)
	other := lease(t, c, "survivor")
	if len(other.Jobs) == 0 || other.Jobs[0].Fingerprint == l.Jobs[0].Fingerprint {
		t.Fatalf("second worker got %+v, want the other job", other)
	}
	postResult(t, c, ResultRequest{Worker: "survivor", LeaseID: other.LeaseID,
		Fingerprint: other.Jobs[0].Fingerprint, Payload: []byte(`1`)})

	// Past the deadline the dead worker's job fails over.
	clock.Advance(2 * time.Second)
	failover := lease(t, c, "survivor")
	if len(failover.Jobs) == 0 || failover.Jobs[0].Fingerprint != l.Jobs[0].Fingerprint {
		t.Fatalf("failover lease = %+v, want %s", failover, l.Jobs[0].Fingerprint)
	}
	if s := c.Stats(); s.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", s.Expired)
	}

	// The dead worker's late result is still absorbed (idempotent), then
	// the survivor's own post counts as a duplicate.
	late, _ := postResult(t, c, ResultRequest{Worker: "dying", LeaseID: l.LeaseID,
		Fingerprint: l.Jobs[0].Fingerprint, Payload: []byte(`2`)})
	if !late.Accepted || late.Duplicate {
		t.Fatalf("late post = %+v", late)
	}
	dup, _ := postResult(t, c, ResultRequest{Worker: "survivor", LeaseID: failover.LeaseID,
		Fingerprint: failover.Jobs[0].Fingerprint, Payload: []byte(`2`)})
	if !dup.Accepted || !dup.Duplicate {
		t.Fatalf("post after late completion = %+v", dup)
	}
	if !isDone(c) {
		t.Fatal("campaign not done")
	}
}

// TestHeartbeatExtendsLease: heartbeats hold a long-running lease past
// its original deadline; without them it would have failed over.
func TestHeartbeatExtendsLease(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Second, Now: clock.Now},
		jobsFor("a"))
	if err != nil {
		t.Fatal(err)
	}
	l := lease(t, c, "w1")

	for i := 0; i < 5; i++ {
		clock.Advance(700 * time.Millisecond) // past half, inside TTL
		var hb HeartbeatResponse
		call(t, c, http.MethodPost, PathHeartbeat,
			HeartbeatRequest{Worker: "w1", LeaseID: l.LeaseID}, &hb)
		if !hb.Extended {
			t.Fatalf("beat %d not extended", i)
		}
	}
	// 3.5s of wall time against a 1s TTL, still held: no expiry, and an
	// idle second worker finds nothing leasable.
	if s := c.Stats(); s.Expired != 0 || s.Leased != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if idle := idleLease(t, c, "w2"); len(idle.Jobs) != 0 || idle.Done || idle.RetryMillis <= 0 {
		t.Fatalf("idle lease = %+v, want retry hint", idle)
	}

	// A heartbeat for an unknown (expired or bogus) lease says so.
	var hb HeartbeatResponse
	call(t, c, http.MethodPost, PathHeartbeat,
		HeartbeatRequest{Worker: "w1", LeaseID: "lease-999"}, &hb)
	if hb.Extended {
		t.Fatal("unknown lease extended")
	}
}

// TestOneLeaseQueue pins the coordinator's one queue. Config.Shards
// is ignored: two workers take jobs in submission order, an expired
// lease's job is re-leased before any fresh job, and a failed job is
// leased after every other pending job.
func TestOneLeaseQueue(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), Shards: 2, LeaseTTL: 10 * time.Second,
		MaxJobFailures: 2, Now: clock.Now}, jobsFor("a", "b", "c", "d", "e"))
	if err != nil {
		t.Fatal(err)
	}
	// take leases the next job as worker and checks that it is want.
	take := func(worker, want string) LeaseResponse {
		t.Helper()
		l := lease(t, c, worker)
		if len(l.Jobs) == 0 || l.Jobs[0].Fingerprint != want {
			t.Fatalf("%s leased %+v, want %s", worker, l, want)
		}
		return l
	}
	// finish takes the next job as worker and posts its result.
	finish := func(worker, want string) {
		t.Helper()
		l := take(worker, want)
		if r, code := postResult(t, c, ResultRequest{Worker: worker, LeaseID: l.LeaseID,
			Fingerprint: want, Payload: []byte(`1`)}); code != http.StatusOK || !r.Accepted {
			t.Fatalf("posting %s: code %d resp %+v", want, code, r)
		}
	}

	take("w0", "a")
	finish("w1", "b")
	finish("w0", "c")

	// a's holder goes quiet: past the TTL its job is leased again
	// before the fresh d and e.
	clock.Advance(11 * time.Second)
	a := take("w1", "a")

	// a fails: it goes behind d and e.
	if r, _ := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: a.LeaseID,
		Fingerprint: "a", Error: "boom"}); !r.Accepted || r.Retired {
		t.Fatalf("failure ack = %+v", r)
	}
	finish("w0", "d")
	finish("w1", "e")
	finish("w0", "a")

	s := c.Stats()
	if !s.Done() || s.Expired != 1 || s.Requeued != 1 || s.Steals != 0 || s.Pending != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFailureRetirementAndRecovery: worker-reported failures requeue at
// the tail up to the cap, then retire the job; a later success
// un-retires it.
func TestFailureRetirementAndRecovery(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{
		Sink: newFakeSink(), LeaseTTL: 10 * time.Second,
		MaxJobFailures: 2, Now: clock.Now,
	}, jobsFor("poison", "healthy"))
	if err != nil {
		t.Fatal(err)
	}

	l := lease(t, c, "w1")
	r1, _ := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l.LeaseID,
		Fingerprint: l.Jobs[0].Fingerprint, Error: "boom"})
	if !r1.Accepted || r1.Retired {
		t.Fatalf("first failure = %+v", r1)
	}
	if s := c.Stats(); s.Requeued != 1 {
		t.Fatalf("Requeued = %d", s.Requeued)
	}

	// The failed job went to the tail: the next lease is the healthy one.
	l2 := lease(t, c, "w1")
	if l2.Jobs[0].Fingerprint == l.Jobs[0].Fingerprint {
		t.Fatal("failed job not requeued at tail")
	}
	postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l2.LeaseID,
		Fingerprint: l2.Jobs[0].Fingerprint, Payload: []byte(`1`)})

	// Second failure hits the cap and retires the job.
	l3 := lease(t, c, "w1")
	r2, _ := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l3.LeaseID,
		Fingerprint: l3.Jobs[0].Fingerprint, Error: "boom again"})
	if !r2.Retired {
		t.Fatalf("capped failure = %+v", r2)
	}
	if !isDone(c) {
		t.Fatal("campaign with a retired job should be terminal")
	}
	failed := c.FailedJobs()
	if len(failed) != 1 || failed[0].Fingerprint != l.Jobs[0].Fingerprint {
		t.Fatalf("FailedJobs = %+v", failed)
	}

	// A straggler's success un-retires: the result is real.
	rr, _ := postResult(t, c, ResultRequest{Worker: "w2",
		Fingerprint: l.Jobs[0].Fingerprint, Payload: []byte(`2`)})
	if !rr.Accepted {
		t.Fatalf("late success = %+v", rr)
	}
	if got := c.FailedJobs(); len(got) != 0 {
		t.Fatalf("FailedJobs after recovery = %+v", got)
	}
	if s := c.Stats(); s.Failed != 0 || s.Completed != 2 {
		t.Fatalf("stats after recovery = %+v", s)
	}
}

func TestCachedJobsCompleteAtConstruction(t *testing.T) {
	sink := newFakeSink()
	sink.results["a"] = []byte(`1`)
	sink.results["b"] = []byte(`2`)
	c, err := NewCoordinator(Config{Sink: sink}, jobsFor("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if !isDone(c) {
		t.Fatal("fully cached campaign not done at construction")
	}
	s := c.Stats()
	if s.CachedAtStart != 2 || s.Completed != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if l := lease(t, c, "w1"); !l.Done {
		t.Fatalf("lease = %+v", l)
	}
}

func TestResultValidation(t *testing.T) {
	clock := newFakeClock()
	sink := newFakeSink()
	sink.failFor["bad-ingest"] = true
	c, err := NewCoordinator(Config{Sink: sink, Now: clock.Now},
		jobsFor("a", "bad-ingest"))
	if err != nil {
		t.Fatal(err)
	}

	// Unknown fingerprint: 404, not accepted, campaign unaffected.
	resp, code := postResult(t, c, ResultRequest{Worker: "w1", Fingerprint: "nope", Payload: []byte(`1`)})
	if code != http.StatusNotFound || resp.Accepted {
		t.Fatalf("unknown fp: code %d resp %+v", code, resp)
	}

	// Sink ingest failure surfaces as a 500 and the job stays pending
	// (leaseable again) rather than silently completing.
	var ingestLease LeaseResponse
	for {
		l := lease(t, c, "w1")
		if len(l.Jobs) == 0 {
			t.Fatal("ran out of jobs before finding bad-ingest")
		}
		if l.Jobs[0].Fingerprint == "bad-ingest" {
			ingestLease = l
			break
		}
		postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l.LeaseID,
			Fingerprint: l.Jobs[0].Fingerprint, Payload: []byte(`1`)})
	}
	var rr ResultResponse
	code = call(t, c, http.MethodPost, PathResult, ResultRequest{Worker: "w1",
		LeaseID: ingestLease.LeaseID, Fingerprint: "bad-ingest", Payload: []byte(`1`)}, &rr)
	if code != http.StatusInternalServerError {
		t.Fatalf("ingest failure: code %d", code)
	}
	if s := c.Stats(); s.IngestErrors != 1 {
		t.Fatalf("IngestErrors = %d", s.IngestErrors)
	}
	if isDone(c) {
		t.Fatal("done despite failed ingest")
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(Config{}, jobsFor("a")); err == nil {
		t.Error("nil sink accepted")
	}
	if _, err := NewCoordinator(Config{Sink: newFakeSink()},
		[]engine.Job{engine.JobFunc{JobName: "anon"}}); err == nil {
		t.Error("fingerprint-less job accepted")
	}
	// Duplicate fingerprints collapse to one queue entry.
	c, err := NewCoordinator(Config{Sink: newFakeSink()}, jobsFor("a", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Jobs != 2 {
		t.Fatalf("Jobs = %d, want 2 after dedupe", s.Jobs)
	}
}

func TestStatusAndHealthEndpoints(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), Now: clock.Now}, jobsFor("a"))
	if err != nil {
		t.Fatal(err)
	}
	lease(t, c, "w1")
	clock.Advance(250 * time.Millisecond)

	var s Stats
	if code := call(t, c, http.MethodGet, PathStatus, nil, &s); code != http.StatusOK {
		t.Fatalf("status: code %d", code)
	}
	if s.Jobs != 1 || s.Leased != 1 || s.Done() {
		t.Fatalf("status = %+v", s)
	}
	if len(s.Workers) != 1 || s.Workers[0].LastSeenAgoMillis != 250 {
		t.Fatalf("worker liveness = %+v", s.Workers)
	}

	var h map[string]any
	if code := call(t, c, http.MethodGet, PathHealth, nil, &h); code != http.StatusOK {
		t.Fatalf("health: code %d", code)
	}
	if h["status"] != "ok" {
		t.Fatalf("health = %v", h)
	}
}

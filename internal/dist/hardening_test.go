package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestLateResultAfterReLeaseExactlyOnce pins the idempotent re-lease
// contract: a job whose lease expired and was granted again produces
// exactly one sink ingest no matter how many workers post its result —
// the first post wins, every later one is absorbed as a duplicate
// without touching the sink.
func TestLateResultAfterReLeaseExactlyOnce(t *testing.T) {
	clock := newFakeClock()
	sink := newFakeSink()
	c, err := NewCoordinator(Config{Sink: sink, LeaseTTL: time.Second, Now: clock.Now},
		jobsFor("a"))
	if err != nil {
		t.Fatal(err)
	}

	// w1 leases the job, goes quiet, and the lease fails over to w2.
	l1 := lease(t, c, "w1")
	clock.Advance(2 * time.Second)
	l2 := lease(t, c, "w2")
	if len(l2.Jobs) == 0 || l2.Jobs[0].Fingerprint != "a" {
		t.Fatalf("failover lease = %+v", l2)
	}

	// w2 completes first; the slow w1 posts the same result late.
	r2, _ := postResult(t, c, ResultRequest{Worker: "w2", LeaseID: l2.LeaseID,
		Fingerprint: "a", Payload: []byte(`1.5`)})
	if !r2.Accepted || r2.Duplicate {
		t.Fatalf("winner post = %+v", r2)
	}
	r1, _ := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l1.LeaseID,
		Fingerprint: "a", Payload: []byte(`1.5`)})
	if !r1.Accepted || !r1.Duplicate {
		t.Fatalf("late post = %+v, want accepted duplicate", r1)
	}

	if n := sink.ingests("a"); n != 1 {
		t.Fatalf("sink ingested %d times, want exactly 1", n)
	}
	s := c.Stats()
	if s.Ingested != 1 || s.Duplicates != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestLateResultLeavesNothingPending: a job whose lease expired is
// re-enqueued, and when its late holder then completes it, the status
// counts it completed and no longer pending, though its queue entry is
// dropped only when a lease reaches it.
func TestLateResultLeavesNothingPending(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Second, Now: clock.Now},
		jobsFor("a"))
	if err != nil {
		t.Fatal(err)
	}
	l := lease(t, c, "w1")
	clock.Advance(2 * time.Second)
	var s Stats
	if code := call(t, c, http.MethodGet, PathStatus, nil, &s); code != http.StatusOK || s.Pending != 1 {
		t.Fatalf("status after expiry: code %d, %+v", code, s)
	}
	postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l.LeaseID, Fingerprint: "a", Payload: []byte(`1`)})
	if !isDone(c) {
		t.Fatal("coordinator not done after the late result")
	}
	if s := c.Stats(); s.Completed != 1 || s.Pending != 0 || s.Leased != 0 {
		t.Fatalf("stats = %+v, want 1 completed and nothing pending", s)
	}
}

// TestBackpressure429 pins the ingest-budget contract: once the
// sliding window fills, a fresh result post is deferred with 429 +
// Retry-After while the worker keeps its lease, and a replay after the
// window drains is accepted unchanged. Duplicates stay free — they
// never charge the budget.
func TestBackpressure429(t *testing.T) {
	clock := newFakeClock()
	sink := newFakeSink()
	c, err := NewCoordinator(Config{
		Sink: sink, LeaseTTL: time.Minute, Now: clock.Now,
		IngestBurst: 2, IngestWindow: time.Second,
	}, jobsFor("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}

	type held struct{ lease LeaseResponse }
	var leases []held
	for i := 0; i < 3; i++ {
		l := lease(t, c, "w1")
		if len(l.Jobs) == 0 {
			t.Fatalf("lease %d = %+v", i, l)
		}
		leases = append(leases, held{l})
	}

	// First two posts fit the budget.
	for i := 0; i < 2; i++ {
		r, code := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: leases[i].lease.LeaseID,
			Fingerprint: leases[i].lease.Jobs[0].Fingerprint, Payload: []byte(`1`)})
		if code != http.StatusOK || !r.Accepted {
			t.Fatalf("post %d: code %d resp %+v", i, code, r)
		}
	}

	// The third exhausts it: 429, Retry-After set, lease retained, job
	// not completed, sink untouched.
	third := leases[2].lease
	body, _ := json.Marshal(ResultRequest{Worker: "w1", LeaseID: third.LeaseID,
		Fingerprint: third.Jobs[0].Fingerprint, Payload: []byte(`1`)})
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathResult, bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget post: code %d", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	var hint BackpressureResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hint); err != nil || hint.RetryMillis != 1000 {
		t.Fatalf("429 body %s: retryMillis = %d (err %v), want the exact 1000ms wait", rec.Body.Bytes(), hint.RetryMillis, err)
	}
	s := c.Stats()
	if s.Backpressured != 1 || s.Ingested != 2 || s.Completed != 2 || s.Leased != 1 {
		t.Fatalf("stats after 429 = %+v", s)
	}
	if sink.ingests(third.Jobs[0].Fingerprint) != 0 {
		t.Fatal("429'd payload reached the sink")
	}

	// A duplicate post while the window is full is still absorbed for
	// free — no 429, no ingest.
	dup, code := postResult(t, c, ResultRequest{Worker: "w1",
		Fingerprint: leases[0].lease.Jobs[0].Fingerprint, Payload: []byte(`1`)})
	if code != http.StatusOK || !dup.Duplicate {
		t.Fatalf("duplicate under backpressure: code %d resp %+v", code, dup)
	}

	// After the window drains, the identical replay lands.
	clock.Advance(2 * time.Second)
	r, code := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: third.LeaseID,
		Fingerprint: third.Jobs[0].Fingerprint, Payload: []byte(`1`)})
	if code != http.StatusOK || !r.Accepted || r.Duplicate {
		t.Fatalf("replay after window: code %d resp %+v", code, r)
	}
	if !isDone(c) {
		t.Fatal("campaign not done after replay")
	}
	if s := c.Stats(); s.Ingested != 3 {
		t.Fatalf("Ingested = %d, want 3", s.Ingested)
	}
}

// TestDefaultConfigAdmitsEveryIngest: with no IngestBurst set, a
// coordinator admits every fresh result, here 700 posted on a clock
// that never leaves one window. Each job ingests at most once, so the
// job count bounds the ingests and no result is deferred.
func TestDefaultConfigAdmitsEveryIngest(t *testing.T) {
	const n = 700
	fps := make([]string, n)
	for i := range fps {
		fps[i] = fmt.Sprintf("job-%03d", i)
	}
	sink := newFakeSink()
	c, err := NewCoordinator(Config{Sink: sink, LeaseTTL: time.Minute, Now: newFakeClock().Now},
		jobsFor(fps...))
	if err != nil {
		t.Fatal(err)
	}
	posted := 0
	for posted < n {
		l := batchLease(t, c, "w1", n)
		if len(l.Jobs) == 0 {
			t.Fatalf("lease after %d results granted nothing: %+v", posted, l)
		}
		for _, j := range l.Jobs {
			r, code := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l.LeaseID,
				Fingerprint: j.Fingerprint, Payload: []byte(`1`)})
			if code != http.StatusOK || !r.Accepted || r.Duplicate {
				t.Fatalf("result %d (%s): code %d resp %+v", posted+1, j.Fingerprint, code, r)
			}
			posted++
		}
	}
	if !isDone(c) {
		t.Fatal("campaign not done after every result")
	}
	if s := c.Stats(); s.Ingested != n || s.Backpressured != 0 {
		t.Fatalf("stats = %+v, want %d ingested and none backpressured", s, n)
	}
	for _, fp := range fps {
		if sink.ingests(fp) != 1 {
			t.Fatalf("%s ingested %d times, want 1", fp, sink.ingests(fp))
		}
	}
}

func isDrained(c *Coordinator) bool {
	select {
	case <-c.Drained():
		return true
	default:
		return false
	}
}

// TestDrain pins the graceful-shutdown protocol: after Drain no new
// leases are granted, status and health reflect draining, in-flight
// results still land, and Drained closes once the last lease resolves.
func TestDrain(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Minute, Now: clock.Now},
		jobsFor("a", "b"))
	if err != nil {
		t.Fatal(err)
	}

	l := lease(t, c, "w1")
	c.Drain()
	c.Drain() // idempotent
	if isDrained(c) {
		t.Fatal("drained with a lease in flight")
	}

	// No new leases: a worker asking sees Draining, not a job and not
	// Done (the campaign is unfinished).
	idle := lease(t, c, "w2")
	if !idle.Draining || idle.Done || len(idle.Jobs) != 0 {
		t.Fatalf("lease while draining = %+v", idle)
	}
	var s Stats
	call(t, c, http.MethodGet, PathStatus, nil, &s)
	if !s.Draining {
		t.Fatal("status does not show draining")
	}
	var h map[string]any
	call(t, c, http.MethodGet, PathHealth, nil, &h)
	if h["status"] != "draining" {
		t.Fatalf("health = %v", h)
	}

	// The in-flight heartbeat and result still land normally.
	var hb HeartbeatResponse
	call(t, c, http.MethodPost, PathHeartbeat, HeartbeatRequest{Worker: "w1", LeaseID: l.LeaseID}, &hb)
	if !hb.Extended {
		t.Fatal("heartbeat rejected during drain")
	}
	r, _ := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l.LeaseID,
		Fingerprint: l.Jobs[0].Fingerprint, Payload: []byte(`1`)})
	if !r.Accepted {
		t.Fatalf("in-flight result during drain = %+v", r)
	}
	if !r.Draining {
		t.Fatal("result ack during drain must carry Draining so the poster exits without another lease poll")
	}
	if !isDrained(c) {
		t.Fatal("not drained after the last lease resolved")
	}
	if isDone(c) {
		t.Fatal("drain must not mark an unfinished campaign done")
	}
}

// TestDrainResolvesByExpiry: a drain does not wait forever on a dead
// worker — the lease's own TTL resolves it.
func TestDrainResolvesByExpiry(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Second, Now: clock.Now},
		jobsFor("a"))
	if err != nil {
		t.Fatal(err)
	}
	lease(t, c, "doomed")
	c.Drain()
	if isDrained(c) {
		t.Fatal("drained early")
	}
	clock.Advance(2 * time.Second)
	// Any request sweeps; status is the natural probe.
	var s Stats
	call(t, c, http.MethodGet, PathStatus, nil, &s)
	if s.Expired != 1 {
		t.Fatalf("Expired = %d", s.Expired)
	}
	if !isDrained(c) {
		t.Fatal("expiry did not resolve the drain")
	}
}

// TestDrainWithNoLeases: draining an idle coordinator completes
// immediately.
func TestDrainWithNoLeases(t *testing.T) {
	c, err := NewCoordinator(Config{Sink: newFakeSink()}, jobsFor("a"))
	if err != nil {
		t.Fatal(err)
	}
	c.Drain()
	if !isDrained(c) {
		t.Fatal("idle drain did not complete at once")
	}
}

// TestRetryHintTracksLeaseAge: the nothing-leasable retry hint follows
// the soonest outstanding lease deadline, clamped to [50ms, TTL/4] —
// an idle worker probes right when failover could free work.
func TestRetryHintTracksLeaseAge(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: 10 * time.Second, Now: clock.Now},
		jobsFor("a"))
	if err != nil {
		t.Fatal(err)
	}
	lease(t, c, "busy")

	// Fresh lease: remaining 10s clamps down to TTL/4.
	if idle := idleLease(t, c, "idle"); idle.RetryMillis != 2500 {
		t.Fatalf("fresh-lease hint = %dms, want 2500", idle.RetryMillis)
	}
	// 9s in: 1s remains — the hint tracks it.
	clock.Advance(9 * time.Second)
	if idle := idleLease(t, c, "idle"); idle.RetryMillis != 1000 {
		t.Fatalf("aged-lease hint = %dms, want 1000", idle.RetryMillis)
	}
	// 40ms from expiry: clamped up to 50ms, never a hot spin.
	clock.Advance(960 * time.Millisecond)
	if idle := idleLease(t, c, "idle"); idle.RetryMillis != 50 {
		t.Fatalf("near-expiry hint = %dms, want 50", idle.RetryMillis)
	}
}

// TestRequestChecksumVerified pins the wire-integrity contract: a
// request whose HeaderBodySum does not match its bytes is rejected
// with 400 before any state changes, one that matches is processed,
// and every response carries a sum matching its own body.
func TestRequestChecksumVerified(t *testing.T) {
	c, err := NewCoordinator(Config{Sink: newFakeSink()}, jobsFor("a"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(LeaseRequest{Worker: "w1", Seq: 1})

	// Damaged: sum of different bytes.
	req := httptest.NewRequest(http.MethodPost, PathLease, bytes.NewReader(body))
	req.Header.Set(HeaderBodySum, bodySum([]byte("other bytes")))
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("corrupt request: code %d, want 400", rec.Code)
	}
	if s := c.Stats(); s.Leased != 0 {
		t.Fatal("corrupt lease request mutated state")
	}

	// Intact: correct sum passes, and the response checks out against
	// its own advertised sum.
	req = httptest.NewRequest(http.MethodPost, PathLease, bytes.NewReader(body))
	req.Header.Set(HeaderBodySum, bodySum(body))
	rec = httptest.NewRecorder()
	c.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("intact request: code %d", rec.Code)
	}
	if got, want := rec.Header().Get(HeaderBodySum), bodySum(rec.Body.Bytes()); got != want {
		t.Fatalf("response sum %q does not match body sum %q", got, want)
	}
	var l LeaseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil || len(l.Jobs) == 0 {
		t.Fatalf("lease response = %+v, %v", l, err)
	}

	// No header at all: legacy clients still work (sums are verified
	// only when present).
	req = httptest.NewRequest(http.MethodPost, PathHealth, nil)
	rec = httptest.NewRecorder()
	req.Method = http.MethodGet
	c.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("health without sum: code %d", rec.Code)
	}
}

// TestResultAckCarriesDone: only the post that completes the campaign
// is acknowledged with Done — the poster exits on the spot instead of
// racing the coordinator's shutdown with one more lease poll.
func TestResultAckCarriesDone(t *testing.T) {
	c, err := NewCoordinator(Config{Sink: newFakeSink()}, jobsFor("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	l1 := lease(t, c, "w1")
	r1, _ := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l1.LeaseID,
		Fingerprint: l1.Jobs[0].Fingerprint, Payload: []byte(`1`)})
	if !r1.Accepted || r1.Done {
		t.Fatalf("first ack = %+v, want accepted and not done (one job remains)", r1)
	}
	l2 := lease(t, c, "w1")
	r2, _ := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l2.LeaseID,
		Fingerprint: l2.Jobs[0].Fingerprint, Payload: []byte(`2`)})
	if !r2.Accepted || !r2.Done {
		t.Fatalf("final ack = %+v, want Done", r2)
	}
	if !isDone(c) {
		t.Fatal("coordinator not done")
	}
}

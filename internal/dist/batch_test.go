package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensornet/internal/engine"
)

// batchLease asks for a lease on up to max jobs.
func batchLease(t *testing.T, c *Coordinator, worker string, max int) LeaseResponse {
	t.Helper()
	return seqLease(t, c, worker, max, testSeq.Add(1))
}

// seqLease asks for a lease on up to max jobs under sequence number
// seq.
func seqLease(t *testing.T, c *Coordinator, worker string, max int, seq int64) LeaseResponse {
	t.Helper()
	var resp LeaseResponse
	if code := call(t, c, http.MethodPost, PathLease, LeaseRequest{Worker: worker, Max: max, Seq: seq}, &resp); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	return resp
}

// fingerprints lists a grant's fingerprints in order.
func fingerprints(l LeaseResponse) []string {
	var out []string
	for _, j := range l.Jobs {
		out = append(out, j.Fingerprint)
	}
	return out
}

// TestBatchGrantTakesQueueFront: a grant takes the front of the queue in
// submission order, up to the request's Max and never beyond the
// factoring share ⌈pending / (2 × live workers)⌉; a Max of 0 or 1 gets
// one job. A worker not seen within the lease TTL is not live. Stats
// and worker stats count leased jobs, not leases.
func TestBatchGrantTakesQueueFront(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Minute, Now: clock.Now},
		jobsFor("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		worker string
		max    int
		want   []string
	}{
		{"w1", 3, []string{"a", "b", "c"}},             // Max caps: share is ⌈12/2⌉ = 6
		{"w1", 100, []string{"d", "e", "f", "g", "h"}}, // share caps: ⌈9/2⌉ = 5
		{"w2", 100, []string{"i"}},                     // a second worker halves it: ⌈4/4⌉ = 1
		{"w1", 0, []string{"j"}},                       // Max 0 is one job
		{"w2", 1, []string{"k"}},
	} {
		l := batchLease(t, c, step.worker, step.max)
		if got := fingerprints(l); !slices.Equal(got, step.want) || l.LeaseID == "" {
			t.Fatalf("%s with max %d leased %v under %q, want %v", step.worker, step.max, got, l.LeaseID, step.want)
		}
	}
	s := c.Stats()
	if s.Leased != 11 || s.Pending != 1 {
		t.Fatalf("stats = %+v, want 11 jobs leased and 1 pending", s)
	}
	if len(s.Workers) != 2 || s.Workers[0].Leased != 9 || s.Workers[1].Leased != 2 {
		t.Fatalf("worker stats = %+v, want 9 and 2 jobs leased", s.Workers)
	}

	// Every lease expires and its jobs go back in grant order. w2 was
	// last seen two TTLs ago, so only w1 is live: ⌈12/2⌉ = 6.
	clock.Advance(2 * time.Minute)
	if l := batchLease(t, c, "w1", 100); !slices.Equal(fingerprints(l), []string{"a", "b", "c", "d", "e", "f"}) {
		t.Fatalf("w1 alone leased %v, want [a b c d e f]", fingerprints(l))
	}
}

// TestBatchResultLeavesRestLeased: a result for one job of a batch
// completes that job alone. The rest stay leased under the same lease,
// whose heartbeat still extends them all.
func TestBatchResultLeavesRestLeased(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Second, Now: clock.Now},
		jobsFor("a", "b", "c", "d", "e", "f"))
	if err != nil {
		t.Fatal(err)
	}
	l := batchLease(t, c, "w1", 3)
	if !slices.Equal(fingerprints(l), []string{"a", "b", "c"}) {
		t.Fatalf("lease = %+v", l)
	}
	if r, code := postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l.LeaseID, Fingerprint: "b",
		Payload: []byte(`1`)}); code != http.StatusOK || !r.Accepted {
		t.Fatalf("post b: code %d ack %+v", code, r)
	}
	if s := c.Stats(); s.Leased != 2 || s.Completed != 1 || s.Pending != 3 {
		t.Fatalf("stats after one result = %+v, want 2 leased, 1 completed, 3 pending", s)
	}
	clock.Advance(700 * time.Millisecond)
	var hb HeartbeatResponse
	call(t, c, http.MethodPost, PathHeartbeat, HeartbeatRequest{Worker: "w1", LeaseID: l.LeaseID}, &hb)
	if !hb.Extended {
		t.Fatal("the batch's lease did not survive one of its results")
	}
	clock.Advance(700 * time.Millisecond)
	var s Stats
	call(t, c, http.MethodGet, PathStatus, nil, &s) // sweeps
	if s.Leased != 2 || s.Expired != 0 {
		t.Fatalf("the heartbeat did not hold the batch: %+v", s)
	}
}

// TestBatchExpiryRequeuesAtFront: an expired batch lease re-enqueues
// its unfinished jobs at the front of the queue in batch order, ahead
// of fresh work, and batches that expire together go back in grant
// order.
func TestBatchExpiryRequeuesAtFront(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Second, Now: clock.Now},
		jobsFor("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"))
	if err != nil {
		t.Fatal(err)
	}
	first := batchLease(t, c, "w1", 3)  // a b c
	second := batchLease(t, c, "w2", 2) // d e
	if !slices.Equal(fingerprints(first), []string{"a", "b", "c"}) || !slices.Equal(fingerprints(second), []string{"d", "e"}) {
		t.Fatalf("leases = %v, %v", fingerprints(first), fingerprints(second))
	}
	postResult(t, c, ResultRequest{Worker: "w1", LeaseID: first.LeaseID, Fingerprint: "b", Payload: []byte(`1`)})
	clock.Advance(2 * time.Second)

	// Both leases expire at the next request: a c d e go back ahead of f.
	var got []string
	for len(got) < 5 {
		l := batchLease(t, c, "w3", 1)
		if len(l.Jobs) != 1 {
			t.Fatalf("lease after expiry = %+v", l)
		}
		got = append(got, l.Jobs[0].Fingerprint)
	}
	if !slices.Equal(got, []string{"a", "c", "d", "e", "f"}) {
		t.Fatalf("leased %v after the expiry, want [a c d e f]", got)
	}
	if s := c.Stats(); s.Expired != 2 {
		t.Fatalf("Expired = %d, want 2 leases", s.Expired)
	}
}

// TestLeaseReplayGrantsOneBatch: a lease body delivered twice — a
// duplicated request, or a retry after a lost response — grants one
// batch, and the replay gets that batch back. Once the lease is
// resolved a replay leases nothing; the worker's next sequence number
// does.
func TestLeaseReplayGrantsOneBatch(t *testing.T) {
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Minute, Now: newFakeClock().Now},
		jobsFor("a", "b", "c", "d", "e", "f", "g", "h"))
	if err != nil {
		t.Fatal(err)
	}
	l := seqLease(t, c, "w1", 2, 1)
	again := seqLease(t, c, "w1", 2, 1)
	if again.LeaseID != l.LeaseID || !slices.Equal(fingerprints(again), fingerprints(l)) {
		t.Fatalf("replay answered %+v, want the stored %+v", again, l)
	}
	if s := c.Stats(); s.Leased != 2 || s.Workers[0].Leased != 2 {
		t.Fatalf("stats after a replay = %+v, want one batch of 2 leased", s)
	}
	for _, fp := range fingerprints(l) {
		postResult(t, c, ResultRequest{Worker: "w1", LeaseID: l.LeaseID, Fingerprint: fp, Payload: []byte(`1`)})
	}
	if late := seqLease(t, c, "w1", 2, 1); len(late.Jobs) != 0 || late.RetryMillis <= 0 {
		t.Fatalf("replay of a resolved lease = %+v, want no grant and a retry hint", late)
	}
	if next := seqLease(t, c, "w1", 2, 2); len(next.Jobs) == 0 || next.LeaseID == l.LeaseID {
		t.Fatalf("next sequence number = %+v, want a fresh grant", next)
	}
}

// TestLeaseRequestNeedsSeq: a lease request without a positive sequence
// number is rejected with 400 and leases nothing.
func TestLeaseRequestNeedsSeq(t *testing.T) {
	c, err := NewCoordinator(Config{Sink: newFakeSink()}, jobsFor("a"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int64{0, -1} {
		if code := call(t, c, http.MethodPost, PathLease, LeaseRequest{Worker: "w1", Max: 1, Seq: seq}, nil); code != http.StatusBadRequest {
			t.Fatalf("lease with seq %d: status %d, want 400", seq, code)
		}
	}
	if s := c.Stats(); s.Leased != 0 || len(s.Workers) != 0 {
		t.Fatalf("rejected lease requests changed the coordinator: %+v", s)
	}
}

// parkedLease starts a lease request for worker that will find nothing
// leasable, waits until it has parked, and returns its outcome channel.
func parkedLease(t *testing.T, ctx context.Context, c *Coordinator, worker string) <-chan LeaseResponse {
	t.Helper()
	out := make(chan LeaseResponse, 1)
	go func() {
		body, _ := json.Marshal(LeaseRequest{Worker: worker, Max: 4, Seq: 1})
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathLease, bytes.NewReader(body)).WithContext(ctx))
		var l LeaseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil {
			t.Errorf("parked lease answered %d %q: %v", rec.Code, rec.Body.Bytes(), err)
		}
		out <- l
	}()
	select {
	case l := <-out:
		t.Fatalf("lease request answered %+v without parking", l)
	case <-time.After(100 * time.Millisecond):
	}
	return out
}

// answered waits for a parked lease request's answer, failing if it
// takes longer than a second.
func answered(t *testing.T, out <-chan LeaseResponse) LeaseResponse {
	t.Helper()
	select {
	case l := <-out:
		return l
	case <-time.After(time.Second):
		t.Fatal("parked lease request not answered within 1s")
		return LeaseResponse{}
	}
}

// TestParkedLeaseWakes: a lease request that finds nothing pending while
// jobs are leased elsewhere waits on the coordinator, and returns
// promptly when the campaign is done, when an expiry re-enqueues a job
// (which it then takes), when a drain starts, and when its context is
// cancelled. The lease TTL is a minute, so its wait bound never fires.
func TestParkedLeaseWakes(t *testing.T) {
	setup := func(t *testing.T) (*Coordinator, *fakeClock, LeaseResponse) {
		clock := newFakeClock()
		c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Minute, Now: clock.Now},
			jobsFor("a"))
		if err != nil {
			t.Fatal(err)
		}
		return c, clock, lease(t, c, "busy")
	}
	t.Run("done", func(t *testing.T) {
		c, _, held := setup(t)
		out := parkedLease(t, context.Background(), c, "idle")
		postResult(t, c, ResultRequest{Worker: "busy", LeaseID: held.LeaseID, Fingerprint: "a", Payload: []byte(`1`)})
		if l := answered(t, out); !l.Done {
			t.Fatalf("parked lease after the last result = %+v, want Done", l)
		}
	})
	t.Run("expiry", func(t *testing.T) {
		c, clock, _ := setup(t)
		out := parkedLease(t, context.Background(), c, "idle")
		clock.Advance(2 * time.Minute)
		var s Stats
		call(t, c, http.MethodGet, PathStatus, nil, &s) // any request sweeps
		if l := answered(t, out); !slices.Equal(fingerprints(l), []string{"a"}) {
			t.Fatalf("parked lease after an expiry = %+v, want the re-enqueued job", l)
		}
	})
	t.Run("drain", func(t *testing.T) {
		c, _, _ := setup(t)
		out := parkedLease(t, context.Background(), c, "idle")
		c.Drain()
		if l := answered(t, out); !l.Draining {
			t.Fatalf("parked lease after Drain = %+v, want Draining", l)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		c, _, _ := setup(t)
		ctx, cancel := context.WithCancel(context.Background())
		out := parkedLease(t, ctx, c, "idle")
		cancel()
		if l := answered(t, out); l.Done || len(l.Jobs) != 0 {
			t.Fatalf("cancelled parked lease = %+v, want no grant", l)
		}
	})
}

// scriptedLeases serves a lease per entry of grants (each a batch of
// job fingerprints), then Done, and acknowledges every result. It
// records the Max of every lease request.
type scriptedLeases struct {
	mu     sync.Mutex
	grants [][]string
	// leaseDelay delays the answer to the lease request of each index,
	// and resultDelay every result acknowledgment.
	leaseDelay  map[int]time.Duration
	resultDelay time.Duration
	maxes       []int
}

func (s *scriptedLeases) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case PathLease:
		var req LeaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		time.Sleep(s.leaseDelay[len(s.maxes)])
		s.maxes = append(s.maxes, req.Max)
		if len(s.grants) == 0 {
			writeJSON(w, http.StatusOK, LeaseResponse{Done: true})
			return
		}
		var jobs []JobSpec
		for _, fp := range s.grants[0] {
			jobs = append(jobs, JobSpec{Name: fp, Fingerprint: fp})
		}
		s.grants = s.grants[1:]
		writeJSON(w, http.StatusOK, LeaseResponse{Jobs: jobs, LeaseID: "L", TTLMillis: 60000})
	case PathResult:
		time.Sleep(s.resultDelay)
		writeJSON(w, http.StatusOK, ResultResponse{Accepted: true})
	default:
		writeJSON(w, http.StatusOK, HeartbeatResponse{Extended: true})
	}
}

// sleepJobs are n codec-carrying jobs fp-0 … fp-(n-1), each sleeping d.
func sleepJobs(n int, d time.Duration) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := range jobs {
		jobs[i] = engine.JobFunc{
			Key: "fp-" + string(rune('0'+i)),
			Fn: func(ctx context.Context) (any, error) {
				time.Sleep(d)
				return 1.5, nil
			},
			EncodeFn: func(v any) ([]byte, error) { return json.Marshal(v) },
		}
	}
	return jobs
}

// TestWorkerBatchSize: a worker asks for one job until it has timed a
// result round trip and a job, then for ⌈mean round trip / mean job
// run⌉. A job slower than the round trip keeps it at one, so slow jobs
// are leased one at a time, also when a grant was slow to come (a
// lease request may wait on the coordinator for work); fast jobs
// behind a slow round trip are batched.
func TestWorkerBatchSize(t *testing.T) {
	run := func(t *testing.T, jobTime time.Duration, s *scriptedLeases) []int {
		s.grants = [][]string{{"fp-0"}, {"fp-1"}, {"fp-2"}, {"fp-3"}}
		w := testWorker(t, scriptedServer(t, s.ServeHTTP), func(c *WorkerConfig) {
			c.Engine = engine.New(engine.Config{Workers: 1})
			c.Jobs = sleepJobs(8, jobTime)
		})
		rep, err := w.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != 4 || rep.Leased != 4 {
			t.Fatalf("report = %+v", rep)
		}
		return s.maxes
	}
	slowJobs := func(t *testing.T, s *scriptedLeases) {
		for i, m := range run(t, 50*time.Millisecond, s) {
			if m != 1 {
				t.Fatalf("lease request %d asked for %d jobs, want 1 (a job outlasts the round trip)", i, m)
			}
		}
	}
	t.Run("slow-jobs", func(t *testing.T) { slowJobs(t, &scriptedLeases{}) })
	t.Run("slow-grant", func(t *testing.T) {
		slowJobs(t, &scriptedLeases{leaseDelay: map[int]time.Duration{1: 500 * time.Millisecond}})
	})
	t.Run("slow-round-trip", func(t *testing.T) {
		maxes := run(t, 0, &scriptedLeases{resultDelay: 20 * time.Millisecond})
		if maxes[0] != 1 || maxes[1] < 2 {
			t.Fatalf("lease requests asked for %v, want 1 then a batch", maxes)
		}
	})
}

// TestWorkerDrainingMidBatchFinishesBatch: a worker told Draining by the
// ack of its batch's first result still runs and posts the rest of the
// batch, then exits without another lease poll, so the coordinator is
// drained at once instead of waiting out the lease TTL.
func TestWorkerDrainingMidBatchFinishesBatch(t *testing.T) {
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Minute}, jobsFor("fp-0", "fp-1", "fp-2", "fp-3"))
	if err != nil {
		t.Fatal(err)
	}
	var leasePolls, results atomic.Int64
	url := scriptedServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathLease:
			// Ask for a batch of two on the worker's behalf: its own
			// first request is for one job.
			leasePolls.Add(1)
			var req LeaseRequest
			if !decodeBody(w, r, &req) {
				return
			}
			req.Max = 2
			body, _ := json.Marshal(req)
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.Header.Del(HeaderBodySum)
		case PathResult:
			if results.Add(1) == 1 {
				c.Drain()
			}
		}
		c.ServeHTTP(w, r)
	})
	w := testWorker(t, url, func(cfg *WorkerConfig) { cfg.Jobs = sleepJobs(4, 0) })
	rep, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained || rep.Completed != 2 || leasePolls.Load() != 1 {
		t.Fatalf("report %+v after %d lease polls, want 2 completed, drained, 1 poll", rep, leasePolls.Load())
	}
	if !isDrained(c) {
		t.Fatalf("coordinator not drained once the batch was posted: %+v", c.Stats())
	}
}

// TestWorkerFailAfterHoldsBatch: the FailAfter fault still exits holding
// a lease — here a whole batch, whose jobs the coordinator re-enqueues
// at the front once the lease expires.
func TestWorkerFailAfterHoldsBatch(t *testing.T) {
	clock := newFakeClock()
	c, err := NewCoordinator(Config{Sink: newFakeSink(), LeaseTTL: time.Second, Now: clock.Now},
		jobsFor("fp-0", "fp-1", "fp-2", "fp-3", "fp-4", "fp-5", "fp-6", "fp-7"))
	if err != nil {
		t.Fatal(err)
	}
	w := testWorker(t, scriptedServer(t, c.ServeHTTP), func(cfg *WorkerConfig) {
		cfg.Jobs = sleepJobs(8, 0)
		cfg.FailAfter = 1
	})
	rep, err := w.Run(context.Background())
	if !errors.Is(err, ErrFailInjected) {
		t.Fatalf("err = %v, want ErrFailInjected", err)
	}
	s := c.Stats()
	if rep.Completed != 1 || s.Completed != 1 || s.Leased < 1 || rep.Leased != 1+s.Leased {
		t.Fatalf("report %+v, stats %+v: want 1 completed and the last lease held", rep, s)
	}
	held := s.Leased
	clock.Advance(2 * time.Second)
	l := batchLease(t, c, "survivor", 100)
	if s := c.Stats(); s.Expired != 1 || len(l.Jobs) == 0 || l.Jobs[0].Fingerprint != "fp-1" {
		t.Fatalf("after expiry: lease %v, stats %+v; want the %d held job(s) back at the front", fingerprints(l), s, held)
	}
}

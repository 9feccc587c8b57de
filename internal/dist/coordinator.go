package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"sensornet/internal/engine"
)

// Config parameterises a Coordinator.
type Config struct {
	// Sink receives posted result payloads; jobs it already has results
	// for are completed at construction time (a resumed campaign).
	// Required. engine.Cache implements it.
	Sink engine.ResultSink
	// Deprecated: Shards is ignored. The coordinator leases every job
	// from one queue: which worker computes a content-addressed job
	// never changes its result, so there is nothing to partition.
	Shards int
	// LeaseTTL bounds how long a lease lives without a heartbeat before
	// its job fails over; defaults to 30s.
	LeaseTTL time.Duration
	// MaxJobFailures retires a job after this many worker-reported
	// failures, so a poison job cannot wedge the campaign; defaults
	// to 3.
	MaxJobFailures int
	// IngestBurst, when positive, bounds how many fresh result payloads
	// the coordinator admits per IngestWindow before answering 429 +
	// Retry-After; the deferred worker keeps its lease and retries. Zero,
	// the default, admits every fresh result: each job ingests at most
	// once, and duplicates and failure reports never reach the sink, so
	// a campaign's ingests are bounded by its job count and a cap could
	// only slow it down.
	IngestBurst int
	// IngestWindow is the sliding window a positive IngestBurst is
	// measured over; defaults to 1s.
	IngestWindow time.Duration
	// Now is the coordinator's clock; defaults to time.Now. Tests
	// inject a fake to drive lease expiry deterministically.
	Now func() time.Time
	// Logf, when non-nil, receives protocol-level diagnostics (lease
	// expiries, job failures, ingest failures).
	Logf func(format string, args ...any)
}

// jobState is one job's lifecycle position.
type jobState uint8

const (
	statePending jobState = iota
	stateLeased
	stateDone
	stateFailed
)

type distJob struct {
	spec     JobSpec
	state    jobState
	failures int
	leaseID  string // active lease, when stateLeased
}

// leaseInfo is one grant: a batch of jobs under one ID, one deadline
// and one heartbeat.
type leaseInfo struct {
	id       string
	n        int       // grant number, ordering expiries
	jobs     []JobSpec // the batch, in grant order
	open     int       // jobs of the batch still leased under it
	worker   string
	deadline time.Time
}

type workerInfo struct {
	lastSeen time.Time
	stats    WorkerStats
	// seq is the worker's last lease request sequence number, and
	// grant the lease that request was granted ("" when none): a
	// replay of seq is answered from it.
	seq   int64
	grant string
}

// Coordinator serves a lease-based job queue over HTTP. It is an
// http.Handler; the caller owns the http.Server around it (timeouts,
// graceful Shutdown). All state transitions happen under one mutex on
// request paths — there are no background goroutines; lease expiry is
// swept lazily at the top of every request. A lease request that finds
// nothing pending parks outside the mutex until woken or timed out.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	mu   sync.Mutex
	jobs map[string]*distJob // by fingerprint
	// queue holds the pending fingerprints, front first. An entry whose
	// job has since left statePending is stale and dropped when popped.
	queue    []string
	leases   map[string]*leaseInfo
	workers  map[string]*workerInfo
	order    []string // fingerprints in submission order, for reporting
	leaseSeq int
	// states counts the jobs in each jobState.
	states [stateFailed + 1]int

	total, cached                         int
	expired, requeued, duplicates         int
	ingestErrors, ingested, backpressured int

	// wake is closed, and replaced, whenever a parked lease request may
	// now be answered differently: a job was re-enqueued, the campaign
	// finished, or a drain began.
	wake chan struct{}

	// ingestTimes is the sliding backpressure window: admission times of
	// the most recent ingests, pruned to IngestWindow on every check.
	ingestTimes []time.Time

	draining    bool
	drained     chan struct{}
	drainedOnce sync.Once

	done     chan struct{}
	doneOnce sync.Once
}

// NewCoordinator builds a coordinator over the campaign's cacheable
// jobs, queued in submission order. Jobs already present in the sink
// complete immediately (resume); duplicate fingerprints collapse to one
// queue entry; a job with no fingerprint is an error — a result that
// cannot be content-addressed cannot travel the wire.
func NewCoordinator(cfg Config, jobs []engine.Job) (*Coordinator, error) {
	if cfg.Sink == nil {
		return nil, errors.New("dist: coordinator needs a result sink (engine.Cache)")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxJobFailures <= 0 {
		cfg.MaxJobFailures = 3
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.IngestWindow <= 0 {
		cfg.IngestWindow = time.Second
	}
	c := &Coordinator{
		cfg:     cfg,
		jobs:    map[string]*distJob{},
		leases:  map[string]*leaseInfo{},
		workers: map[string]*workerInfo{},
		wake:    make(chan struct{}),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	for _, j := range jobs {
		fp := j.Fingerprint()
		if fp == "" {
			return nil, fmt.Errorf("dist: job %q has no fingerprint: uncacheable jobs cannot be distributed", j.Name())
		}
		if _, dup := c.jobs[fp]; dup {
			continue
		}
		dj := &distJob{spec: JobSpec{Name: j.Name(), Fingerprint: fp}}
		c.jobs[fp] = dj
		c.order = append(c.order, fp)
		c.total++
		c.states[statePending]++
		if cfg.Sink.HasResult(fp) {
			c.setStateLocked(dj, stateDone)
			c.cached++
		} else {
			c.queue = append(c.queue, fp)
		}
	}
	c.checkDoneLocked()

	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathLease, c.handleLease)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("POST "+PathResult, c.handleResult)
	mux.HandleFunc("GET "+PathStatus, c.handleStatus)
	mux.HandleFunc("GET "+PathHealth, c.handleHealth)
	c.mux = mux
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Done returns a channel closed once every job is terminal (completed
// or retired failed). The cmd layer selects on it to shut the server
// down when the campaign finishes.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Drain moves the coordinator into graceful shutdown: no new leases
// are granted (workers asking for one see Draining and exit), while
// in-flight heartbeats and results keep landing normally. Once the
// last outstanding lease resolves — its result posted, its failure
// recorded, or its deadline expired — the Drained channel closes.
// Drain is idempotent and safe from any goroutine (the cmd layer calls
// it from the signal handler).
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	c.draining = true
	c.logf("dist: draining — %d leases in flight, no new leases will be granted", len(c.leases))
	c.notifyLocked()
	c.checkDrainedLocked()
}

// Drained returns a channel closed once Drain was called and every
// outstanding lease has resolved. It never closes before Drain.
func (c *Coordinator) Drained() <-chan struct{} { return c.drained }

// checkDrainedLocked closes the drained channel when a drain has been
// requested and no leases remain in flight. Called wherever the lease
// table can shrink: results, failures, and expiry sweeps.
func (c *Coordinator) checkDrainedLocked() {
	if c.draining && len(c.leases) == 0 {
		c.drainedOnce.Do(func() { close(c.drained) })
	}
}

// Stats snapshots the coordinator's state.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

func (c *Coordinator) statsLocked() Stats {
	now := c.cfg.Now()
	// Count by state, not queue length: the queue may still hold an
	// entry for a job a late result completed.
	s := Stats{
		Jobs: c.total, CachedAtStart: c.cached,
		Completed: c.states[stateDone], Failed: c.states[stateFailed],
		Pending: c.states[statePending], Leased: c.states[stateLeased],
		Expired: c.expired, Requeued: c.requeued,
		Duplicates: c.duplicates, IngestErrors: c.ingestErrors,
		Ingested: c.ingested, Backpressured: c.backpressured,
		Draining: c.draining,
	}
	for _, w := range c.workers {
		ws := w.stats
		ws.LastSeenAgoMillis = now.Sub(w.lastSeen).Milliseconds()
		s.Workers = append(s.Workers, ws)
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].ID < s.Workers[j].ID })
	return s
}

// FailedJobs lists the retired jobs, in submission order.
func (c *Coordinator) FailedJobs() []JobSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []JobSpec
	for _, fp := range c.order {
		if j := c.jobs[fp]; j.state == stateFailed {
			out = append(out, j.spec)
		}
	}
	return out
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// setStateLocked moves j to state s, keeping the per-state counts.
func (c *Coordinator) setStateLocked(j *distJob, s jobState) {
	c.states[j.state]--
	j.state = s
	c.states[s]++
}

// doneLocked reports whether every job is terminal.
func (c *Coordinator) doneLocked() bool {
	return c.states[stateDone]+c.states[stateFailed] == c.total
}

// notifyLocked wakes every parked lease request to try again.
func (c *Coordinator) notifyLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// sweepLocked re-enqueues the unfinished jobs of every expired lease at
// the front of the queue, so failed-over work is picked up before fresh
// work: each batch in its grant order, earlier grants first.
func (c *Coordinator) sweepLocked(now time.Time) {
	var expired []*leaseInfo
	for _, l := range c.leases {
		if !now.Before(l.deadline) {
			expired = append(expired, l)
		}
	}
	if len(expired) == 0 {
		return
	}
	sort.Slice(expired, func(a, b int) bool { return expired[a].n < expired[b].n })
	var back []string
	for _, l := range expired {
		delete(c.leases, l.id)
		c.expired++
		requeued := 0
		for _, spec := range l.jobs {
			j := c.jobs[spec.Fingerprint]
			if j.state != stateLeased || j.leaseID != l.id {
				continue
			}
			c.setStateLocked(j, statePending)
			j.leaseID = ""
			back = append(back, spec.Fingerprint)
			requeued++
		}
		c.logf("dist: lease %s (%d job(s), from %s) on worker %s expired; %d job(s) re-enqueued",
			l.id, len(l.jobs), l.jobs[0].Name, l.worker, requeued)
	}
	if len(back) > 0 {
		c.queue = append(back, c.queue...)
		c.notifyLocked()
	}
	// A drain waits only for leases; expiry resolves them too.
	c.checkDrainedLocked()
}

// releaseLocked takes j out of whatever lease holds it — the poster's,
// or after an expiry another worker's — and leaves the rest of that
// batch leased. The lease ends with its last open job.
func (c *Coordinator) releaseLocked(j *distJob) {
	if l := c.leases[j.leaseID]; l != nil {
		if l.open--; l.open == 0 {
			delete(c.leases, l.id)
		}
	}
	j.leaseID = ""
}

// touchWorkerLocked registers a worker on first contact and refreshes
// its liveness.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) *workerInfo {
	w, ok := c.workers[id]
	if !ok {
		w = &workerInfo{stats: WorkerStats{ID: id}}
		c.workers[id] = w
	}
	w.lastSeen = now
	return w
}

// popLocked takes up to n leasable fingerprints from the front of the
// queue, in order. Stale queue entries — jobs already terminal or
// re-leased — are dropped on the way.
func (c *Coordinator) popLocked(n int) []*distJob {
	var out []*distJob
	for len(out) < n && len(c.queue) > 0 {
		j := c.jobs[c.queue[0]]
		c.queue = c.queue[1:]
		if j.state == statePending {
			out = append(out, j)
		}
	}
	return out
}

// grantLocked leases the front of the queue to the worker as one
// batch: up to Max jobs (one when Max ≤ 1), and never more than its
// factoring share of the pending jobs, ⌈pending / (2 × live workers)⌉,
// where a worker is live if seen within the lease TTL. A batch's
// results are posted one at a time by its worker alone, so however
// large a worker's Max, the share spreads the pending jobs across the
// workers instead of queueing them behind one. It reports false when
// nothing is pending.
func (c *Coordinator) grantLocked(wi *workerInfo, req LeaseRequest, now time.Time) (LeaseResponse, bool) {
	live := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) < c.cfg.LeaseTTL {
			live++
		}
	}
	share := (c.states[statePending] + 2*live - 1) / (2 * live)
	batch := c.popLocked(min(max(req.Max, 1), share))
	if len(batch) == 0 {
		return LeaseResponse{}, false
	}
	c.leaseSeq++
	l := &leaseInfo{
		id:       fmt.Sprintf("lease-%d", c.leaseSeq),
		n:        c.leaseSeq,
		jobs:     make([]JobSpec, len(batch)),
		open:     len(batch),
		worker:   req.Worker,
		deadline: now.Add(c.cfg.LeaseTTL),
	}
	for i, j := range batch {
		l.jobs[i] = j.spec
		c.setStateLocked(j, stateLeased)
		j.leaseID = l.id
	}
	c.leases[l.id] = l
	wi.stats.Leased += len(batch)
	return c.leaseResponse(l), true
}

// leaseResponse is the grant of lease l.
func (c *Coordinator) leaseResponse(l *leaseInfo) LeaseResponse {
	return LeaseResponse{Jobs: l.jobs, LeaseID: l.id, TTLMillis: c.cfg.LeaseTTL.Milliseconds()}
}

// parkLimitLocked bounds how long a lease request that found nothing
// pending may wait for work: until the soonest lease deadline, when an
// expiry could free a job, and at most LeaseTTL/4.
func (c *Coordinator) parkLimitLocked(now time.Time) time.Duration {
	limit := c.cfg.LeaseTTL / 4
	for _, l := range c.leases {
		limit = min(limit, l.deadline.Sub(now))
	}
	return limit
}

// nextExpiryHintLocked computes how long an idle worker should wait
// before asking again, from the age of the outstanding leases: the
// time until the soonest deadline, clamped to [50ms, LeaseTTL/4].
func (c *Coordinator) nextExpiryHintLocked(now time.Time) time.Duration {
	return max(c.parkLimitLocked(now), 50*time.Millisecond)
}

func (c *Coordinator) checkDoneLocked() {
	if c.doneLocked() {
		c.doneOnce.Do(func() {
			close(c.done)
			c.notifyLocked()
		})
	}
}

// ackLocked stamps a result acknowledgment with the coordinator's
// terminal state. The worker whose post completes the campaign (or
// resolves the last draining lease) learns it from this very response
// — one lease poll later the server may already be gone.
func (c *Coordinator) ackLocked(r ResultResponse) ResultResponse {
	r.Done = c.doneLocked()
	r.Draining = c.draining
	return r
}

// --- HTTP handlers ---

// bodySum computes the hex sha256 carried in HeaderBodySum.
func bodySum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// writeJSON marshals the response up front so its checksum can travel
// in HeaderBodySum — a client seeing a mismatched sum knows the bytes
// were damaged in transit and retries rather than acting on them.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the protocol's plain structs; fail loud rather
		// than emit an unverifiable body.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderBodySum, bodySum(data))
	w.WriteHeader(status)
	// The status line is already out; a short write leaves the client a
	// truncated body that fails its checksum and retries.
	_, _ = w.Write(data)
}

// decodeBody reads one JSON request body, bounded so a misbehaving
// client cannot balloon coordinator memory, and — when the worker
// attached a HeaderBodySum — verifies the bytes arrived intact before
// parsing them. A sum mismatch is a 400 the worker treats as
// retryable; a fresh send re-rolls the transport's fault dice.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	const maxBody = 64 << 20 // surface rows are small; 64 MiB is generous
	body := http.MaxBytesReader(w, r.Body, maxBody)
	data, err := io.ReadAll(body)
	if err == nil {
		if want := r.Header.Get(HeaderBodySum); want != "" && want != bodySum(data) {
			err = errors.New("dist: request body checksum mismatch (corrupted in transit)")
		}
	}
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return false
	}
	return true
}

// Handlers compute their response entirely under the lock and write it
// only after release (the lockheld check enforces this): an Encode to a
// stalled worker must not hold up every other lease, heartbeat, and
// result behind one slow reader.

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "dist: lease request without a worker id"})
		return
	}
	if req.Seq <= 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "dist: lease request without a sequence number"})
		return
	}
	writeJSON(w, http.StatusOK, c.lease(r.Context(), req))
}

// lease answers one lease request. When nothing is pending but jobs are
// leased elsewhere, it parks outside the lock until a job is
// re-enqueued, the campaign is done, a drain starts or ctx ends, for at
// most parkLimitLocked, and tries again on each wake-up. A request that
// waited its whole limit in vain carries no retry hint: having waited
// already, the worker asks again after its hint clamp's 50ms floor.
func (c *Coordinator) lease(ctx context.Context, req LeaseRequest) LeaseResponse {
	resp, limit, wake := c.tryLease(req, true)
	if limit <= 0 {
		return resp
	}
	timer := time.NewTimer(limit)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return resp
		case <-timer.C:
			resp, _, _ = c.tryLease(req, false)
			resp.RetryMillis = 0
			return resp
		case <-wake:
		}
		if resp, limit, wake = c.tryLease(req, false); limit <= 0 {
			return resp
		}
	}
}

// tryLease grants (or defers) a lease under the coordinator lock. A
// nonzero limit means nothing was leasable: the request may park for up
// to limit, and wake closes when it should try again. first is false
// for the retries of a parked request.
func (c *Coordinator) tryLease(req LeaseRequest, first bool) (resp LeaseResponse, limit time.Duration, wake <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.sweepLocked(now)
	wi := c.touchWorkerLocked(req.Worker, now)

	replay := false
	switch {
	case !first && req.Seq != wi.seq:
		// The worker has sent a newer request since this one parked: it
		// no longer listens for this answer.
		return resp, 0, nil
	case first && req.Seq == wi.seq:
		replay = true
	case first:
		wi.seq, wi.grant = req.Seq, ""
	}
	if l := c.leases[wi.grant]; replay && l != nil {
		return c.leaseResponse(l), 0, nil
	}
	if c.doneLocked() {
		resp.Done = true
		return resp, 0, nil
	}
	if c.draining {
		// Graceful shutdown: the campaign is not done, but no more work
		// will be handed out. The worker finishes nothing-in-particular
		// and exits; unfinished jobs stay pending for a resumed run.
		resp.Draining = true
		return resp, 0, nil
	}
	if !replay {
		if grant, ok := c.grantLocked(wi, req, now); ok {
			wi.grant = grant.LeaseID
			return grant, 0, nil
		}
	}
	// Everything outstanding may be leased elsewhere; it may fail over,
	// so the worker should ask again when that could next happen: the
	// soonest lease deadline, clamped to [50ms, TTL/4] so a
	// heartbeat-extended fleet still gets polled at the old cadence and
	// a nearly expired lease is probed promptly.
	resp.RetryMillis = c.nextExpiryHintLocked(now).Milliseconds()
	if replay {
		// A replay leases nothing new, and does not park: the request it
		// repeats already did.
		return resp, 0, nil
	}
	return resp, c.parkLimitLocked(now), c.wake
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, c.heartbeat(req))
}

// heartbeat extends one lease under the coordinator lock.
func (c *Coordinator) heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.sweepLocked(now)
	if req.Worker != "" {
		c.touchWorkerLocked(req.Worker, now)
	}
	l, ok := c.leases[req.LeaseID]
	if !ok {
		return HeartbeatResponse{Extended: false}
	}
	l.deadline = now.Add(c.cfg.LeaseTTL)
	return HeartbeatResponse{Extended: true, TTLMillis: c.cfg.LeaseTTL.Milliseconds()}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !decodeBody(w, r, &req) {
		return
	}
	status, body, retryAfter := c.result(req)
	if retryAfter > 0 {
		secs := int64(retryAfter / time.Second)
		if retryAfter%time.Second > 0 {
			secs++ // Retry-After is whole seconds; round up, never down to 0
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, body)
}

// result ingests one posted result under the coordinator lock,
// returning the HTTP status, response body, and (for 429) the wait the
// handler writes as Retry-After after release. The
// IngestResult call stays inside the critical section deliberately: it
// is a local content-addressed cache write, and admitting a result
// must be atomic with the job-state transition or a concurrent
// duplicate post could double-count completion.
func (c *Coordinator) result(req ResultRequest) (int, any, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.sweepLocked(now)
	if req.Worker != "" {
		c.touchWorkerLocked(req.Worker, now)
	}
	j, ok := c.jobs[req.Fingerprint]
	if !ok {
		return http.StatusNotFound, ResultResponse{Accepted: false}, 0
	}
	if req.Error != "" {
		if wi := c.workers[req.Worker]; wi != nil {
			wi.stats.Failures++
		}
		if j.state == stateDone || j.state == stateFailed {
			c.duplicates++
			c.releaseLocked(j)
			c.checkDrainedLocked()
			return http.StatusOK, c.ackLocked(ResultResponse{Accepted: true, Duplicate: true}), 0
		}
		c.releaseLocked(j)
		c.checkDrainedLocked()
		j.failures++
		if j.failures >= c.cfg.MaxJobFailures {
			c.setStateLocked(j, stateFailed)
			c.logf("dist: job %s retired after %d failures (last: %s)",
				j.spec.Name, j.failures, req.Error)
			c.checkDoneLocked()
			return http.StatusOK, c.ackLocked(ResultResponse{Accepted: true, Retired: true}), 0
		}
		// Requeue at the tail: a failing job must not starve the healthy
		// front of the queue.
		c.setStateLocked(j, statePending)
		c.queue = append(c.queue, req.Fingerprint)
		c.requeued++
		c.notifyLocked()
		c.logf("dist: job %s failed on worker %s (%s); re-enqueued (%d/%d failures)",
			j.spec.Name, req.Worker, req.Error, j.failures, c.cfg.MaxJobFailures)
		return http.StatusOK, c.ackLocked(ResultResponse{Accepted: true}), 0
	}

	if j.state == stateDone {
		// A late post from an expired lease: content addressing makes it
		// byte-identical to what we already stored, so absorb it without
		// touching the sink — duplicates are free and never re-ingested.
		c.duplicates++
		c.releaseLocked(j)
		c.checkDrainedLocked()
		return http.StatusOK, c.ackLocked(ResultResponse{Accepted: true, Duplicate: true}), 0
	}
	// Backpressure applies only to fresh payloads about to be ingested:
	// duplicates and failure reports cost nothing, and a 429 must leave
	// the job's state (and the worker's lease) exactly as it found them
	// so the deferred retry is a plain replay.
	if wait, ok := c.admitIngestLocked(now); !ok {
		c.backpressured++
		return http.StatusTooManyRequests, BackpressureResponse{
			Error:       "dist: ingest budget exhausted; retry after backoff",
			RetryMillis: int64((wait + time.Millisecond - 1) / time.Millisecond),
		}, wait
	}
	if err := c.cfg.Sink.IngestResult(req.Fingerprint, req.Payload); err != nil {
		c.ingestErrors++
		c.logf("dist: ingesting result of %s from worker %s: %v", j.spec.Name, req.Worker, err)
		return http.StatusInternalServerError, map[string]string{"error": err.Error()}, 0
	}
	c.ingested++
	c.releaseLocked(j)
	c.checkDrainedLocked()
	// A success arriving after the job was retired un-retires it: the
	// result is real and content-addressed, so keep it.
	c.setStateLocked(j, stateDone)
	if wi := c.workers[req.Worker]; wi != nil {
		wi.stats.Completed++
	}
	c.checkDoneLocked()
	return http.StatusOK, c.ackLocked(ResultResponse{Accepted: true}), 0
}

// admitIngestLocked charges one ingest against the sliding-window
// budget, when one is set. When the window is full it reports how long
// until its oldest admission ages out — the Retry-After the deferred
// worker is told.
func (c *Coordinator) admitIngestLocked(now time.Time) (time.Duration, bool) {
	if c.cfg.IngestBurst <= 0 {
		return 0, true
	}
	cutoff := now.Add(-c.cfg.IngestWindow)
	keep := c.ingestTimes[:0]
	for _, t := range c.ingestTimes {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	c.ingestTimes = keep
	if len(c.ingestTimes) >= c.cfg.IngestBurst {
		wait := c.ingestTimes[0].Sub(cutoff)
		if wait <= 0 {
			wait = time.Millisecond
		}
		return wait, false
	}
	c.ingestTimes = append(c.ingestTimes, now)
	return 0, true
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.sweepLocked(c.cfg.Now())
	s := c.statsLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, s)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	s := c.Stats()
	status := "ok"
	if s.Draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "jobs": s.Jobs})
}

package dist

import (
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
	// Shards is the number of queue partitions — nominally the planned
	// worker count. Jobs are assigned by engine.ShardOf(fingerprint),
	// the same content-hash split the coordinator-free -shard mode uses.
	// <= 1 means one queue (stealing never triggers).
	Shards int
	// LeaseTTL bounds how long a lease lives without a heartbeat before
	// its job fails over; defaults to 30s.
	LeaseTTL time.Duration
	// MaxJobFailures retires a job after this many worker-reported
	// failures, so a poison job cannot wedge the campaign; defaults
	// to 3.
	MaxJobFailures int
	// IngestBurst bounds how many result payloads the coordinator admits
	// per IngestWindow before answering 429 + Retry-After; the deferred
	// worker keeps its lease and retries. Defaults to 256 per second —
	// far above steady-state for real campaigns, low enough that a
	// thundering herd of re-posted duplicates cannot monopolise the
	// coordinator lock.
	IngestBurst int
	// IngestWindow is the sliding window IngestBurst is measured over;
	// defaults to 1s.
	IngestWindow time.Duration
	// Now is the coordinator's clock; defaults to time.Now. Tests
	// inject a fake to drive lease expiry deterministically.
	Now func() time.Time
	// Logf, when non-nil, receives protocol-level diagnostics (lease
	// expiries, steals, ingest failures).
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
	shard    int
	state    jobState
	failures int
	leaseID  string // active lease, when stateLeased
}

type leaseInfo struct {
	id       string
	fp       string
	worker   string
	deadline time.Time
	started  time.Time
	stolen   bool
}

type workerInfo struct {
	id       string
	shard    int
	lastSeen time.Time
	stats    WorkerStats
}

// Coordinator serves a lease-based job queue over HTTP. It is an
// http.Handler; the caller owns the http.Server around it (timeouts,
// graceful Shutdown). All state transitions happen under one mutex on
// request paths — there are no background goroutines; lease expiry is
// swept lazily at the top of every request.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	mu        sync.Mutex
	jobs      map[string]*distJob // by fingerprint
	queues    [][]string          // pending fingerprints per shard
	leases    map[string]*leaseInfo
	workers   map[string]*workerInfo
	order     []string // fingerprints in submission order, for reporting
	nextShard int
	leaseSeq  int

	total, cached, completed, failed      int
	steals, expired, requeued, duplicates int
	ingestErrors, ingested, backpressured int

	// ingestTimes is the sliding backpressure window: admission times of
	// the most recent ingests, pruned to IngestWindow on every check.
	ingestTimes []time.Time

	// shardMean tracks an exponential moving average of observed job
	// runtime per shard (seconds, from lease grant to accepted result),
	// and shardObs how many samples each mean has absorbed. Stealing
	// weighs queues by len × mean runtime, so the victim is the shard
	// with the most outstanding *work*, not merely the most entries.
	shardMean []float64
	shardObs  []int

	draining    bool
	drained     chan struct{}
	drainedOnce sync.Once

	done     chan struct{}
	doneOnce sync.Once
}

// NewCoordinator builds a coordinator over the campaign's cacheable
// jobs. Jobs already present in the sink complete immediately (resume);
// duplicate fingerprints collapse to one queue entry; a job with no
// fingerprint is an error — a result that cannot be content-addressed
// cannot travel the wire.
func NewCoordinator(cfg Config, jobs []engine.Job) (*Coordinator, error) {
	if cfg.Sink == nil {
		return nil, errors.New("dist: coordinator needs a result sink (engine.Cache)")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
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
	if cfg.IngestBurst <= 0 {
		cfg.IngestBurst = 256
	}
	if cfg.IngestWindow <= 0 {
		cfg.IngestWindow = time.Second
	}
	c := &Coordinator{
		cfg:       cfg,
		jobs:      map[string]*distJob{},
		queues:    make([][]string, cfg.Shards),
		leases:    map[string]*leaseInfo{},
		workers:   map[string]*workerInfo{},
		shardMean: make([]float64, cfg.Shards),
		shardObs:  make([]int, cfg.Shards),
		done:      make(chan struct{}),
		drained:   make(chan struct{}),
	}
	for _, j := range jobs {
		fp := j.Fingerprint()
		if fp == "" {
			return nil, fmt.Errorf("dist: job %q has no fingerprint: uncacheable jobs cannot be distributed", j.Name())
		}
		if _, dup := c.jobs[fp]; dup {
			continue
		}
		dj := &distJob{
			spec:  JobSpec{Name: j.Name(), Fingerprint: fp},
			shard: engine.ShardOf(fp, cfg.Shards),
		}
		c.jobs[fp] = dj
		c.order = append(c.order, fp)
		c.total++
		if cfg.Sink.HasResult(fp) {
			dj.state = stateDone
			c.cached++
			c.completed++
		} else {
			c.queues[dj.shard] = append(c.queues[dj.shard], fp)
		}
	}
	if c.completed == c.total {
		c.doneOnce.Do(func() { close(c.done) })
	}

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
	s := Stats{
		Jobs: c.total, CachedAtStart: c.cached,
		Completed: c.completed, Failed: c.failed,
		Leased: len(c.leases),
		Steals: c.steals, Expired: c.expired, Requeued: c.requeued,
		Duplicates: c.duplicates, IngestErrors: c.ingestErrors,
		Ingested: c.ingested, Backpressured: c.backpressured,
		Draining: c.draining,
	}
	for _, q := range c.queues {
		s.Pending += len(q)
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

// sweepLocked re-enqueues every expired lease at the front of its
// shard's queue, so failed-over work is picked up before fresh work.
func (c *Coordinator) sweepLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(c.leases, id)
		c.expired++
		j := c.jobs[l.fp]
		if j == nil || j.state != stateLeased {
			continue
		}
		j.state = statePending
		j.leaseID = ""
		c.queues[j.shard] = append([]string{l.fp}, c.queues[j.shard]...)
		c.logf("dist: lease %s (%s) on worker %s expired; job re-enqueued on shard %d",
			id, j.spec.Name, l.worker, j.shard)
	}
	// A drain waits only for leases; expiry resolves them too.
	c.checkDrainedLocked()
}

// touchWorkerLocked registers a worker on first contact (assigning it
// the next shard queue round-robin) and refreshes its liveness.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) *workerInfo {
	w, ok := c.workers[id]
	if !ok {
		w = &workerInfo{id: id, shard: c.nextShard % c.cfg.Shards}
		w.stats = WorkerStats{ID: id, Shard: w.shard}
		c.nextShard++
		c.workers[id] = w
	}
	w.lastSeen = now
	return w
}

// popLocked takes the next leasable fingerprint for a worker on shard:
// the front of its own queue, else the tail of the queue holding the
// most outstanding *work* (a steal). Stale queue entries — jobs already
// terminal or re-leased — are dropped lazily.
func (c *Coordinator) popLocked(shard int) (fp string, stolen, ok bool) {
	if fp, ok := c.popQueueLocked(shard, false); ok {
		return fp, false, true
	}
	// Steal from the victim queue's tail: the victim keeps draining its
	// front, the thief eats the slack from the other end. The victim is
	// the shard whose remaining work — queue length weighted by observed
	// per-job runtime — is largest, so a short queue of slow jobs
	// outranks a long queue of fast ones. With no runtime samples yet
	// every shard weighs 1.0 per entry and this degrades to
	// longest-queue, the pre-deadline-aware policy.
	for {
		victim, best := -1, 0.0
		for i, q := range c.queues {
			if i == shard || len(q) == 0 {
				continue
			}
			est := float64(len(q)) * c.meanRuntimeLocked(i)
			if victim < 0 || est > best {
				victim, best = i, est
			}
		}
		if victim < 0 {
			return "", false, false
		}
		if fp, ok := c.popQueueLocked(victim, true); ok {
			return fp, true, true
		}
	}
}

// meanRuntimeLocked estimates one job's runtime on a shard, in
// seconds: the shard's own EWMA when it has samples, else the mean
// over shards that do, else 1.0 (any constant works — with no samples
// anywhere the weights cancel and victim selection is queue length).
func (c *Coordinator) meanRuntimeLocked(shard int) float64 {
	if c.shardObs[shard] > 0 {
		return c.shardMean[shard]
	}
	sum, n := 0.0, 0
	for i, obs := range c.shardObs {
		if obs > 0 {
			sum += c.shardMean[i]
			n++
		}
	}
	if n > 0 {
		return sum / float64(n)
	}
	return 1.0
}

// observeRuntimeLocked folds one completed lease's wall time into its
// shard's runtime EWMA (α = 0.3: recent jobs dominate, one outlier
// does not).
func (c *Coordinator) observeRuntimeLocked(shard int, d time.Duration) {
	if d < 0 {
		return
	}
	sec := d.Seconds()
	if c.shardObs[shard] == 0 {
		c.shardMean[shard] = sec
	} else {
		const alpha = 0.3
		c.shardMean[shard] = alpha*sec + (1-alpha)*c.shardMean[shard]
	}
	c.shardObs[shard]++
}

func (c *Coordinator) popQueueLocked(shard int, fromTail bool) (string, bool) {
	q := c.queues[shard]
	for len(q) > 0 {
		var fp string
		if fromTail {
			fp, q = q[len(q)-1], q[:len(q)-1]
		} else {
			fp, q = q[0], q[1:]
		}
		if j := c.jobs[fp]; j != nil && j.state == statePending {
			c.queues[shard] = q
			return fp, true
		}
	}
	c.queues[shard] = q
	return "", false
}

// nextExpiryHintLocked computes how long an idle worker should wait
// before asking again, from the age of the outstanding leases: the
// time until the soonest deadline, clamped to [50ms, LeaseTTL/4].
func (c *Coordinator) nextExpiryHintLocked(now time.Time) time.Duration {
	hint := c.cfg.LeaseTTL / 4
	for _, l := range c.leases {
		if until := l.deadline.Sub(now); until < hint {
			hint = until
		}
	}
	if hint < 50*time.Millisecond {
		hint = 50 * time.Millisecond
	}
	return hint
}

func (c *Coordinator) checkDoneLocked() {
	if c.completed+c.failed == c.total {
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// ackLocked stamps a result acknowledgment with the coordinator's
// terminal state. The worker whose post completes the campaign (or
// resolves the last draining lease) learns it from this very response
// — one lease poll later the server may already be gone.
func (c *Coordinator) ackLocked(r ResultResponse) ResultResponse {
	r.Done = c.completed+c.failed == c.total
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
	writeJSON(w, http.StatusOK, c.lease(req))
}

// lease grants (or defers) one lease under the coordinator lock.
func (c *Coordinator) lease(req LeaseRequest) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.sweepLocked(now)
	wi := c.touchWorkerLocked(req.Worker, now)

	resp := LeaseResponse{Shard: wi.shard}
	if c.completed+c.failed == c.total {
		resp.Done = true
		return resp
	}
	if c.draining {
		// Graceful shutdown: the campaign is not done, but no more work
		// will be handed out. The worker finishes nothing-in-particular
		// and exits; unfinished jobs stay pending for a resumed run.
		resp.Draining = true
		return resp
	}
	fp, stolen, ok := c.popLocked(wi.shard)
	if !ok {
		// Everything outstanding is leased elsewhere; it may fail over,
		// so the worker should poll again when that could next happen:
		// the soonest lease deadline, clamped to [50ms, TTL/4] so a
		// heartbeat-extended fleet still gets polled at the old cadence
		// and a nearly expired lease is probed promptly.
		resp.RetryMillis = c.nextExpiryHintLocked(now).Milliseconds()
		return resp
	}
	j := c.jobs[fp]
	c.leaseSeq++
	l := &leaseInfo{
		id:       fmt.Sprintf("lease-%d", c.leaseSeq),
		fp:       fp,
		worker:   req.Worker,
		deadline: now.Add(c.cfg.LeaseTTL),
		started:  now,
		stolen:   stolen,
	}
	c.leases[l.id] = l
	j.state = stateLeased
	j.leaseID = l.id
	wi.stats.Leased++
	if stolen {
		c.steals++
		wi.stats.Stolen++
		c.logf("dist: worker %s (shard %d) stole %s from shard %d's tail",
			req.Worker, wi.shard, j.spec.Name, j.shard)
	}
	resp.Job = &j.spec
	resp.LeaseID = l.id
	resp.TTLMillis = c.cfg.LeaseTTL.Milliseconds()
	resp.Stolen = stolen
	return resp
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

// result ingests one posted shard result under the coordinator lock,
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
	l := c.leases[req.LeaseID] // may be nil: expired leases still publish
	releaseLease := func() {
		if j.leaseID != "" {
			delete(c.leases, j.leaseID)
			j.leaseID = ""
		}
		if l != nil && l.fp == req.Fingerprint {
			delete(c.leases, l.id)
		}
	}

	if req.Error != "" {
		if wi := c.workers[req.Worker]; wi != nil {
			wi.stats.Failures++
		}
		if j.state == stateDone || j.state == stateFailed {
			c.duplicates++
			releaseLease()
			c.checkDrainedLocked()
			return http.StatusOK, c.ackLocked(ResultResponse{Accepted: true, Duplicate: true}), 0
		}
		releaseLease()
		c.checkDrainedLocked()
		j.failures++
		if j.failures >= c.cfg.MaxJobFailures {
			j.state = stateFailed
			c.failed++
			c.logf("dist: job %s retired after %d failures (last: %s)",
				j.spec.Name, j.failures, req.Error)
			c.checkDoneLocked()
			return http.StatusOK, c.ackLocked(ResultResponse{Accepted: true, Retired: true}), 0
		}
		// Requeue at the tail: a failing job must not starve the healthy
		// front of the queue.
		j.state = statePending
		c.queues[j.shard] = append(c.queues[j.shard], req.Fingerprint)
		c.requeued++
		c.logf("dist: job %s failed on worker %s (%s); re-enqueued (%d/%d failures)",
			j.spec.Name, req.Worker, req.Error, j.failures, c.cfg.MaxJobFailures)
		return http.StatusOK, c.ackLocked(ResultResponse{Accepted: true}), 0
	}

	if j.state == stateDone {
		// A late post from an expired lease: content addressing makes it
		// byte-identical to what we already stored, so absorb it without
		// touching the sink — duplicates are free and never re-ingested.
		c.duplicates++
		releaseLease()
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
	if l != nil {
		c.observeRuntimeLocked(j.shard, now.Sub(l.started))
	}
	releaseLease()
	c.checkDrainedLocked()
	if j.state == stateFailed {
		// A success arriving after the job was retired un-retires it:
		// the result is real and content-addressed, so keep it.
		c.failed--
	}
	j.state = stateDone
	c.completed++
	if wi := c.workers[req.Worker]; wi != nil {
		wi.stats.Completed++
	}
	c.checkDoneLocked()
	return http.StatusOK, c.ackLocked(ResultResponse{Accepted: true}), 0
}

// admitIngestLocked charges one ingest against the sliding-window
// budget. When the window is full it reports how long until its oldest
// admission ages out — the Retry-After the deferred worker is told.
func (c *Coordinator) admitIngestLocked(now time.Time) (time.Duration, bool) {
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

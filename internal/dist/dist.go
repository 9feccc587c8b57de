// Package dist is the multi-host execution backend for experiment
// campaigns: a stdlib net/http coordinator that serves a lease-based
// job queue, and a worker loop that pulls leases, executes jobs on the
// local engine, and posts results back.
//
// The wire identity of a job is its engine fingerprint — the same
// content-derived string that addresses the result cache — so the
// protocol needs no job registry, no serialised closures, and no
// version handshake beyond the cache salt already baked into every
// fingerprint. A worker is pointed at the same figure/preset flags as
// the coordinator, rebuilds the identical job set locally, and the
// fingerprint is all the coordinator ever has to send.
//
// Results travel as the raw JSON payload bytes the job's codec
// produces — exactly the bytes engine.Cache.Put would store — and the
// coordinator ingests them through engine.ResultSink, whose *Cache
// implementation funnels into the same disk-envelope writer as local
// stores. A campaign merged from remotely posted results is therefore
// byte-identical to one computed in a single process; that property is
// the package's acceptance test.
//
// Pending jobs wait in one queue in submission order, and every lease
// takes a batch from its front. Because a job's result depends only on
// its fingerprint, which worker computes it never matters, so no worker
// owns a slice of the campaign and an idle worker simply takes the next
// jobs. A worker sizes its batch so that one lease round trip buys
// about a round trip's worth of job runs; a lease request that finds
// nothing pending waits on the coordinator until work reappears or the
// campaign ends.
//
// Failover is lease-based: each lease carries a deadline, workers
// heartbeat to extend it, and an expired lease re-enqueues its
// unfinished jobs at the front of the queue, so a killed worker's work
// fails over to the survivors automatically. Because results are
// content addressed, a slow worker whose lease expired may still post
// its result late — the coordinator accepts it idempotently (a
// duplicate of a byte-identical payload is harmless), so no fencing is
// needed.
package dist

import "encoding/json"

// HeaderBodySum carries a hex sha256 of the message body, set by
// workers on every request and by the coordinator on every response.
// Either side verifies it before parsing, so a transport that corrupts
// or truncates bytes (see internal/chaos) produces a retryable
// integrity failure instead of silently ingesting damaged JSON — the
// guard that keeps byte-identical merges true under hostile networks.
const HeaderBodySum = "X-Body-Sum"

// Protocol endpoints served by the Coordinator.
const (
	// PathLease is POSTed by workers to obtain a lease on a batch of
	// jobs.
	PathLease = "/api/lease"
	// PathHeartbeat is POSTed by workers to extend a running lease.
	PathHeartbeat = "/api/heartbeat"
	// PathResult is POSTed by workers to publish a result (or report a
	// job failure).
	PathResult = "/api/result"
	// PathStatus serves coordinator Stats as JSON.
	PathStatus = "/api/status"
	// PathHealth is the liveness endpoint.
	PathHealth = "/healthz"
)

// JobSpec is a job's wire identity: its telemetry name plus the
// content-addressed fingerprint that is both its queue key and its
// cache address.
type JobSpec struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
}

// LeaseRequest asks the coordinator for a lease on up to Max jobs.
type LeaseRequest struct {
	// Worker identifies the requesting worker in the coordinator's
	// per-worker stats.
	Worker string `json:"worker"`
	// Max caps the batch; a Max of 1 or less asks for one job.
	Max int `json:"max,omitempty"`
	// Seq numbers the worker's lease requests from 1, and a retried
	// request keeps its number; a request without one is rejected. A
	// request that repeats the worker's last Seq is a replay: it gets
	// the stored response while that lease is live and never leases
	// anything new, so a duplicated delivery cannot strand a batch
	// until its TTL.
	Seq int64 `json:"seq"`
}

// LeaseResponse answers a lease request. Exactly one of four shapes
// comes back: Done (campaign complete — stop), Draining (the
// coordinator is shutting down and grants no new leases — finish and
// exit), Jobs set (a lease on that batch, in the order to run it), or
// none of those (nothing leasable right now — retry after RetryMillis;
// jobs may reappear when an expired lease re-enqueues). A request that
// finds nothing leasable waits on the coordinator before it is answered
// that way.
type LeaseResponse struct {
	Done        bool      `json:"done,omitempty"`
	Draining    bool      `json:"draining,omitempty"`
	Jobs        []JobSpec `json:"jobs,omitempty"`
	LeaseID     string    `json:"leaseId,omitempty"`
	TTLMillis   int64     `json:"ttlMillis,omitempty"`
	RetryMillis int64     `json:"retryMillis,omitempty"`
}

// HeartbeatRequest extends a lease's deadline, for every job of its
// batch.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"leaseId"`
}

// HeartbeatResponse reports whether the lease is still held. Extended
// false means the lease expired and was re-enqueued (or its job
// completed elsewhere); the worker may keep computing — a late result
// is still accepted idempotently — but must not count on the lease.
type HeartbeatResponse struct {
	Extended  bool  `json:"extended"`
	TTLMillis int64 `json:"ttlMillis,omitempty"`
}

// ResultRequest publishes the outcome of a leased job. On success,
// Payload carries the job codec's JSON encoding of the result — the
// exact bytes the coordinator's cache stores. On failure, Error carries
// the worker-side error text and Payload is empty.
type ResultRequest struct {
	Worker      string          `json:"worker"`
	LeaseID     string          `json:"leaseId,omitempty"`
	Fingerprint string          `json:"fingerprint"`
	Payload     json.RawMessage `json:"payload,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// ResultResponse acknowledges a posted result.
type ResultResponse struct {
	// Accepted reports the payload was ingested (or the failure
	// recorded). False only for requests naming unknown fingerprints.
	Accepted bool `json:"accepted"`
	// Duplicate marks a result for a job that had already completed —
	// harmless by content addressing, counted for observability.
	Duplicate bool `json:"duplicate,omitempty"`
	// Retired marks a failure report that exhausted the job's failure
	// budget: the job will not be re-leased.
	Retired bool `json:"retired,omitempty"`
	// Done reports the campaign is complete as of this acknowledgment.
	// The poster whose result (or failure report) finishes the campaign
	// learns it here and can exit immediately — its next lease poll
	// would race the coordinator's shutdown and hit a closed socket.
	Done bool `json:"done,omitempty"`
	// Draining reports the coordinator is winding down: no further
	// leases will be granted, and the server closes once the in-flight
	// leases resolve. Same race as Done — the poster that lands the
	// final draining lease must not poll again.
	Draining bool `json:"draining,omitempty"`
}

// BackpressureResponse is the body of a 429 answer to a result post.
// RetryMillis is the wait, rounded up to the millisecond, until the
// ingest window admits the replay; the Retry-After header carries the
// same wait rounded up to whole seconds for clients that read only
// headers.
type BackpressureResponse struct {
	Error       string `json:"error"`
	RetryMillis int64  `json:"retryMillis"`
}

// Stats snapshots the coordinator's queue, lease, and worker state for
// the /api/status endpoint and end-of-campaign reporting.
type Stats struct {
	// Jobs is the campaign size; CachedAtStart the jobs already present
	// in the sink when the coordinator was built (a resumed campaign).
	Jobs          int `json:"jobs"`
	CachedAtStart int `json:"cachedAtStart"`
	Completed     int `json:"completed"`
	Failed        int `json:"failed"`
	Pending       int `json:"pending"`
	// Leased counts the jobs under a lease, not the leases.
	Leased int `json:"leased"`
	// Deprecated: Steals is always 0. The coordinator has one queue, so
	// no lease is taken from another worker's share.
	Steals int `json:"steals"`
	// Expired counts the leases whose deadline passed, each of which
	// re-enqueued its unfinished jobs; Requeued the failure-triggered
	// re-enqueues;
	// Duplicates the idempotently absorbed late results.
	Expired      int `json:"expired"`
	Requeued     int `json:"requeued"`
	Duplicates   int `json:"duplicates"`
	IngestErrors int `json:"ingestErrors"`
	// Ingested counts result payloads actually written into the sink —
	// the exactly-once counterpart of Duplicates: Ingested never exceeds
	// the job count no matter how many times results are delivered.
	Ingested int `json:"ingested"`
	// Backpressured counts result posts deferred with 429 + Retry-After
	// because the ingest budget was exhausted.
	Backpressured int `json:"backpressured"`
	// Draining reports the coordinator has stopped granting leases and
	// is waiting for in-flight work to land.
	Draining bool `json:"draining,omitempty"`
	// Workers lists every worker that ever contacted the coordinator,
	// sorted by ID.
	Workers []WorkerStats `json:"workers"`
}

// WorkerStats is one worker's liveness and throughput as the
// coordinator sees it.
type WorkerStats struct {
	ID string `json:"id"`
	// Leased counts the jobs leased to the worker, not the leases;
	// Completed the results accepted; Failures the failure reports.
	Leased    int `json:"leased"`
	Completed int `json:"completed"`
	Failures  int `json:"failures"`
	// LastSeenAgoMillis is the time since the worker's last request,
	// at the instant the stats were snapshotted.
	LastSeenAgoMillis int64 `json:"lastSeenAgoMillis"`
}

// Done reports whether every job reached a terminal state (completed
// or retired failed).
func (s Stats) Done() bool { return s.Completed+s.Failed == s.Jobs }

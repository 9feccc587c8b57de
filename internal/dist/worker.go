package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sensornet/internal/engine"
)

// ErrFailInjected is returned by Worker.Run when the FailAfter fault
// hook fires: the worker exits while holding a lease, simulating a
// crashed host so failover can be exercised deterministically (the
// same philosophy as internal/faults, applied to the fleet itself).
var ErrFailInjected = errors.New("dist: worker fail-after limit reached (injected fault); exiting with a lease held")

// WorkerConfig parameterises a worker loop.
type WorkerConfig struct {
	// ID names this worker to the coordinator; required and expected to
	// be unique per process (e.g. host+pid).
	ID string
	// BaseURL is the coordinator's root URL (e.g. http://host:8080).
	BaseURL string
	// Engine executes leased jobs, once each, bringing the per-job
	// timeout and panic-recovery discipline campaigns already rely on;
	// a failed job is reported to the coordinator, which requeues it
	// up to its MaxJobFailures. Required. Its cache, if any, is
	// worker-local.
	Engine *engine.Engine
	// Jobs is the campaign's full job set (the same FigureJobs the
	// coordinator was built over); the worker indexes it by fingerprint
	// and executes whichever jobs it is leased.
	Jobs []engine.Job
	// Client performs the HTTP requests; defaults to a client with a
	// 30s request timeout.
	Client *http.Client
	// PostAttempts bounds the retry loop around each protocol request;
	// defaults to 10. Every failure is retried — transport errors,
	// checksum mismatches, and error statuses alike — because under a
	// chaotic transport any single response is unreliable evidence, and
	// the protocol is idempotent end to end: a replayed lease request,
	// heartbeat, or result post is always safe.
	PostAttempts int
	// PostBackoff spaces the retries; the zero value means the shared
	// engine discipline with Base 100ms, Max 2s. A 429's retry hint
	// overrides the computed delay.
	PostBackoff engine.BackoffPolicy
	// FailAfter, when > 0, injects a crash: once at least that many
	// results are posted, the worker takes one more lease and exits
	// with ErrFailInjected without executing any of its jobs.
	FailAfter int
	// Logf, when non-nil, receives per-lease diagnostics.
	Logf func(format string, args ...any)
}

// WorkerReport summarises one worker's pass over a campaign.
type WorkerReport struct {
	// Leased counts the jobs leased, not the leases; Completed the
	// results posted; Failed the jobs whose execution or encoding
	// failed (reported to the coordinator).
	Leased, Completed, Failed int
	// FromCache counts completed leases answered from the worker's own
	// engine cache without recomputing — the idempotent re-lease path: a
	// job this worker already ran (under a lease that later expired and
	// failed back over to it) costs one cache read, not a re-execution.
	FromCache int
	// Drained reports the coordinator told this worker it was draining;
	// the worker finished and posted the rest of its batch and exited
	// cleanly.
	Drained bool
}

// String renders the report as the one-line summary the -worker CLI
// prints.
func (r WorkerReport) String() string {
	s := fmt.Sprintf("worker: %d leased, %d completed (%d from cache), %d failed",
		r.Leased, r.Completed, r.FromCache, r.Failed)
	if r.Drained {
		s += " [drained]"
	}
	return s
}

// Worker pulls leases from a coordinator and executes them on the
// local engine.
type Worker struct {
	cfg  WorkerConfig
	jobs map[string]engine.Job
	base string
	// ttlMillis remembers the lease TTL the coordinator last granted
	// (updated by Run, read by retryAfter to bound 429 retry hints).
	ttlMillis atomic.Int64
	// seq numbers the lease requests (Run's goroutine only).
	seq int64
	// roundTrip and jobRun size the lease requests (Run's goroutine
	// only): the round trips of result posts, and the Engine.Run wall
	// times of leased jobs. A result post is timed rather than a lease
	// request because a lease request may wait on the coordinator for
	// work; a result post never does.
	roundTrip, jobRun smoothed
}

// smoothed is a moving average of durations that weights the newest
// sample 1/8, as TCP smooths its round trip time (RFC 6298); the first
// sample seeds it. It follows a campaign from one kind of job to the
// next, and forgets an outlier in a few dozen samples.
type smoothed struct {
	v  time.Duration
	ok bool
}

func (m *smoothed) add(d time.Duration) {
	if !m.ok {
		m.v, m.ok = d, true
		return
	}
	m.v += (d - m.v) / 8
}

// batchSize is the Max of the next lease request: a round trip's worth
// of job runs, ⌈smoothed result round trip / smoothed job run⌉, or 1
// until both exist. Once the estimates reflect jobs slower than a round
// trip, those are leased one at a time.
func (w *Worker) batchSize() int {
	if !w.roundTrip.ok || !w.jobRun.ok || w.jobRun.v <= 0 {
		return 1
	}
	k := math.Ceil(float64(w.roundTrip.v) / float64(w.jobRun.v))
	return int(min(max(k, 1), float64(len(w.jobs))))
}

// NewWorker validates the config and indexes the job set.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, errors.New("dist: worker needs an ID")
	}
	if cfg.BaseURL == "" {
		return nil, errors.New("dist: worker needs the coordinator URL")
	}
	if cfg.Engine == nil {
		return nil, errors.New("dist: worker needs an engine")
	}
	if len(cfg.Jobs) == 0 {
		return nil, errors.New("dist: worker has an empty job set")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.PostAttempts <= 0 {
		cfg.PostAttempts = 10
	}
	if cfg.PostBackoff.Base <= 0 {
		cfg.PostBackoff.Base = 100 * time.Millisecond
	}
	if cfg.PostBackoff.Max <= 0 {
		cfg.PostBackoff.Max = 2 * time.Second
	}
	w := &Worker{
		cfg:  cfg,
		jobs: make(map[string]engine.Job, len(cfg.Jobs)),
		base: strings.TrimSuffix(cfg.BaseURL, "/"),
	}
	for _, j := range cfg.Jobs {
		if fp := j.Fingerprint(); fp != "" {
			w.jobs[fp] = j
		}
	}
	return w, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// post sends one JSON request and decodes the JSON response. The
// request carries a HeaderBodySum integrity checksum and the response's
// is verified before parsing, so a transport that corrupts or
// truncates bytes produces a retry, never a silently damaged message.
// Every failure — transport error, non-200 status, checksum mismatch,
// undecodable body — is retried up to PostAttempts times on the shared
// engine backoff discipline; a 429's retry hint overrides the
// computed delay. Retrying everything is sound because the protocol is
// idempotent end to end (duplicate leases, heartbeats, and result
// posts are all absorbed), and under a hostile transport a "permanent"
// status may itself be damage. It returns the round trip of the attempt
// that succeeded, without the failed attempts and waits before it.
func (w *Worker) post(ctx context.Context, path string, req, resp any) (time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, fmt.Errorf("dist: encoding %s request: %w", path, err)
	}
	sum := bodySum(body)
	var lastErr error
	backoff := time.NewTimer(0)
	if !backoff.Stop() {
		<-backoff.C
	}
	defer backoff.Stop()
	wait := time.Duration(0)
	for attempt := 1; attempt <= w.cfg.PostAttempts; attempt++ {
		if attempt > 1 {
			backoff.Reset(wait)
			select {
			case <-backoff.C:
			case <-ctx.Done():
				return 0, context.Cause(ctx)
			}
		}
		// Default spacing for the next round; a 429's retry hint below
		// overrides it.
		wait = w.cfg.PostBackoff.Delay(path, attempt)
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set(HeaderBodySum, sum)
		start := time.Now()
		res, err := w.cfg.Client.Do(hr)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if want := res.Header.Get(HeaderBodySum); want != "" && want != bodySum(data) {
			lastErr = fmt.Errorf("dist: %s: response body checksum mismatch (corrupted in transit)", path)
			continue
		}
		if res.StatusCode == http.StatusTooManyRequests {
			lastErr = fmt.Errorf("dist: %s: coordinator backpressured the post", path)
			if ra := w.retryAfter(res, data); ra > 0 {
				wait = ra
			}
			continue
		}
		if res.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("dist: %s: coordinator said %s: %s", path, res.Status, strings.TrimSpace(string(data)))
			continue
		}
		if resp != nil {
			if err := json.Unmarshal(data, resp); err != nil {
				lastErr = fmt.Errorf("dist: %s: bad response %q: %w", path, data, err)
				continue
			}
		}
		return time.Since(start), nil
	}
	return 0, fmt.Errorf("dist: %s: giving up after %d attempts: %w", path, w.cfg.PostAttempts, lastErr)
}

// retryAfter reads a 429's retry hint: the body's retryMillis when it
// is positive, else the Retry-After header's delay-seconds form (for a
// coordinator that sends only the header), else 0 (HTTP-date form is
// not worth supporting for a header we mint ourselves). A hint is
// clamped by clampHint.
func (w *Worker) retryAfter(res *http.Response, body []byte) time.Duration {
	var hint BackpressureResponse
	if json.Unmarshal(body, &hint) == nil && hint.RetryMillis > 0 {
		return w.clampHint(time.Duration(hint.RetryMillis) * time.Millisecond)
	}
	if secs, err := strconv.Atoi(res.Header.Get("Retry-After")); err == nil {
		return w.clampHint(time.Duration(secs) * time.Second)
	}
	return 0
}

// clampHint forces a coordinator's retry hint — a 429's, or an empty
// lease's RetryMillis — into the coordinator's own hint range,
// [50ms, TTL/4]: it crosses an untrusted (and, under internal/chaos,
// actively corrupted) transport, so a flipped digit must not stall a
// worker for hours ("9999999") or turn a wait into a hot spin ("0",
// "-3").
func (w *Worker) clampHint(d time.Duration) time.Duration {
	lo := 50 * time.Millisecond
	return min(max(d, lo), max(w.ttl()/4, lo))
}

// ttl is the lease TTL the coordinator last granted, defaulting to the
// protocol's usual 30s before the first lease response arrives.
func (w *Worker) ttl() time.Duration {
	if ms := w.ttlMillis.Load(); ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return 30 * time.Second
}

// Run pulls leases until the coordinator reports the campaign done (or
// ctx is cancelled, or the FailAfter fault fires). The returned report
// is valid even alongside a non-nil error.
func (w *Worker) Run(ctx context.Context) (*WorkerReport, error) {
	rep := &WorkerReport{}
	poll := time.NewTimer(0)
	if !poll.Stop() {
		<-poll.C
	}
	defer poll.Stop()
	for {
		if err := ctx.Err(); err != nil {
			return rep, context.Cause(ctx)
		}
		w.seq++
		var lease LeaseResponse
		if _, err := w.post(ctx, PathLease, LeaseRequest{Worker: w.cfg.ID, Max: w.batchSize(), Seq: w.seq}, &lease); err != nil {
			return rep, err
		}
		if lease.TTLMillis > 0 {
			w.ttlMillis.Store(lease.TTLMillis)
		}
		if lease.Done {
			return rep, nil
		}
		if lease.Draining {
			// Graceful shutdown: the coordinator grants no more work.
			// Anything this worker finished has already been posted, so
			// exit cleanly; unfinished jobs stay with the coordinator.
			w.logf("dist: coordinator is draining; exiting after %d completed", rep.Completed)
			rep.Drained = true
			return rep, nil
		}
		if len(lease.Jobs) == 0 {
			poll.Reset(w.clampHint(time.Duration(lease.RetryMillis) * time.Millisecond))
			select {
			case <-poll.C:
			case <-ctx.Done():
				poll.Stop()
				return rep, context.Cause(ctx)
			}
			continue
		}
		rep.Leased += len(lease.Jobs)
		if w.cfg.FailAfter > 0 && rep.Completed >= w.cfg.FailAfter {
			// Die holding the lease: the coordinator's expiry sweep must
			// fail its jobs over to another worker.
			return rep, ErrFailInjected
		}
		stop, err := w.runLease(ctx, lease, rep)
		if err != nil {
			return rep, err
		}
		if stop {
			// A result acknowledgment said the campaign is over (done or
			// draining): exit now. Another lease poll would race the
			// coordinator's shutdown and find a closed socket.
			return rep, nil
		}
	}
}

// runLease runs a lease's jobs one at a time under one heartbeat,
// posting each outcome as its job finishes. Only transport-level or
// cancellation errors propagate; job failures are reported to the
// coordinator and the batch continues. stop=true means a result
// acknowledgment reported the campaign terminal and the worker must
// exit without another lease poll. Done ends the batch at once, since
// every job is terminal; Draining does not: the rest of the batch is
// leased to this worker alone, so it runs and posts them first, and
// the drain need not wait out their TTL.
func (w *Worker) runLease(ctx context.Context, lease LeaseResponse, rep *WorkerReport) (stop bool, err error) {
	// Heartbeat while the batch computes, at a third of the lease TTL so
	// two beats can be lost before the lease fails over.
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	interval := time.Duration(lease.TTLMillis) * time.Millisecond / 3
	if interval <= 0 {
		interval = 5 * time.Second
	}
	//lint:ignore baregoroutine the heartbeat must tick while the leased jobs compute on the engine pool; it is bounded (one per lease), cancel-aware, and joined before runLease returns
	go w.heartbeat(hbCtx, lease, interval, hbDone)
	defer func() {
		stopHB()
		<-hbDone
	}()
	for _, spec := range lease.Jobs {
		ack, err := w.runJob(ctx, lease.LeaseID, spec, rep)
		if err != nil {
			return false, err
		}
		if ack.Done {
			w.logf("dist: campaign complete; exiting")
			return true, nil
		}
		if ack.Draining && !rep.Drained {
			rep.Drained = true
			w.logf("dist: coordinator is draining; exiting after this lease's jobs")
		}
	}
	return rep.Drained, nil
}

// runJob executes one job of a lease and posts its outcome, returning
// the coordinator's acknowledgment.
func (w *Worker) runJob(ctx context.Context, leaseID string, spec JobSpec, rep *WorkerReport) (ResultResponse, error) {
	req := ResultRequest{Worker: w.cfg.ID, LeaseID: leaseID, Fingerprint: spec.Fingerprint}
	job, ok := w.jobs[spec.Fingerprint]
	if !ok {
		rep.Failed++
		w.logf("dist: leased job %s is not in this worker's job set (figure/preset flags differ from the coordinator?)", spec.Name)
		req.Error = "job not in worker job set (figure/preset mismatch)"
		return w.postResult(ctx, req)
	}

	start := time.Now()
	results, err := w.cfg.Engine.Run(ctx, []engine.Job{job})
	w.jobRun.add(time.Since(start))
	if err != nil {
		if ctx.Err() != nil {
			return ResultResponse{}, context.Cause(ctx)
		}
		rep.Failed++
		w.logf("dist: job %s failed: %v", spec.Name, err)
		req.Error = err.Error()
		return w.postResult(ctx, req)
	}
	req.Payload, err = engine.EncodeResult(job, results[0].Value)
	if err != nil {
		rep.Failed++
		req.Error = err.Error()
		return w.postResult(ctx, req)
	}
	ack, err := w.postResult(ctx, req)
	if err != nil {
		return ack, err
	}
	rep.Completed++
	if results[0].FromCache {
		// A re-leased job this worker had already computed: the engine
		// cache answered without re-executing (idempotent re-lease).
		rep.FromCache++
	}
	w.logf("dist: job %s completed and posted (%d bytes, fromCache=%v)",
		spec.Name, len(req.Payload), results[0].FromCache)
	return ack, nil
}

// postResult posts one result (or failure report), times its round
// trip for batchSize, and returns the coordinator's acknowledgment.
func (w *Worker) postResult(ctx context.Context, req ResultRequest) (ResultResponse, error) {
	var ack ResultResponse
	rtt, err := w.post(ctx, PathResult, req, &ack)
	if err == nil {
		w.roundTrip.add(rtt)
	}
	return ack, err
}

// heartbeat extends the lease until ctx is cancelled (the batch
// finished) or the coordinator reports the lease lost, in which case
// it stops beating — the jobs keep computing and their late results
// are still absorbed idempotently.
func (w *Worker) heartbeat(ctx context.Context, lease LeaseResponse, interval time.Duration, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var resp HeartbeatResponse
		_, err := w.post(ctx, PathHeartbeat, HeartbeatRequest{
			Worker: w.cfg.ID, LeaseID: lease.LeaseID}, &resp)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.logf("dist: heartbeat for lease %s failed: %v", lease.LeaseID, err)
			continue
		}
		if !resp.Extended {
			w.logf("dist: lease %s lost (expired and failed over); finishing its jobs anyway", lease.LeaseID)
			return
		}
	}
}

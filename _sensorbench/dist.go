package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sensornet/internal/dist"
	"sensornet/internal/engine"
	"sensornet/internal/experiments"
)

// The dist-analytic workload computes the PaperAnalytic surface behind
// Figs. 4–7 and 12 — 700 point jobs of about half a millisecond each —
// with two dist workers pulling leases from an in-process coordinator
// over loopback into a fresh disk cache, then merges that cache
// strictly (a cache-only engine) and renders Fig. 4. The jobs are tiny,
// so the lease → execute → post → ingest round trip, the cache envelope
// and disk I/O, and the merge's reads and decodes dominate; deploy,
// channel and sim are idle.
//
// Two CLI behaviours are routed around so they do not set the number:
// the listener stays up until both workers return (the CLI coordinator
// shuts down one second after Done, and a worker still polling then
// exits on a refused connection), and the ingest burst is raised above
// the job count (at the default 256 per second a 700-job campaign is
// told to retry after whole seconds).

// The seed orders the job set handed to the coordinator, and with it
// the order in which each shard's queue leases the jobs; every campaign
// of a run draws its own order from the seed.

// distLeaseTTL is the coordinator's lease TTL. An idle worker is told to
// ask again after a quarter of it, and near a campaign's end one worker
// always idles while the other finishes the last job, so the default
// 30s TTL would add a 7.5s sleep to every campaign.
const distLeaseTTL = 200 * time.Millisecond

func runDistAnalytic(ctx context.Context, e *env) (*outcome, error) {
	pa := experiments.PaperAnalytic()
	want, err := localFig4(ctx, pa)
	if err != nil {
		return nil, fmt.Errorf("local reference run: %w", err)
	}
	out := &outcome{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	order := rand.New(rand.NewSource(e.seed))
	plainFor := e.seconds
	if e.rec != nil {
		plainFor *= untracedShare
	}
	var plain []campaign
	speed := &hostSpeed{}
	speed.sample()
	idx := 0
	for until := time.Now().Add(secs(plainFor)); len(plain) < 3 || time.Now().Before(until); idx++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, ok := distCampaign(ctx, e, idx, pa, order, want, out, nil)
		speed.sample()
		if ok {
			c.scale = speed.scale()
			plain = append(plain, c)
		}
	}
	addCampaigns(out, plain, speed.refs)
	if e.rec == nil {
		return out, nil
	}

	var traced []campaign
	dl := &distLayers{}
	for until := time.Now().Add(secs(e.seconds - plainFor)); len(traced) < 2 || time.Now().Before(until); idx++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c, ok := distCampaign(ctx, e, idx, pa, order, want, out, dl); ok {
			traced = append(traced, c)
		}
	}
	distLayerMetrics(out, e.rec.snapshot(), plain, traced, dl)
	return out, nil
}

// localFig4 renders Fig. 4 from a local engine run of the same jobs: the
// bytes every distributed campaign's merge must reproduce.
func localFig4(ctx context.Context, pa experiments.Preset) ([]byte, error) {
	surf, err := experiments.AnalyticSurfaceCtx(ctx, engine.New(engine.Config{Workers: workers}), pa)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	err = experiments.Fig4(surf).Render(&b)
	return b.Bytes(), err
}

// distCampaign runs one distributed campaign, from the job-set build to
// the rendered figure, and checks it. The job set is handed to the
// coordinator in an order drawn from order. dl is nil for an untraced
// campaign; a traced one records spans under run number idx.
func distCampaign(ctx context.Context, e *env, idx int, pa experiments.Preset, order *rand.Rand,
	want []byte, out *outcome, dl *distLayers) (campaign, bool) {

	var rec *recorder
	if dl != nil {
		rec = e.rec
	}
	run := idx
	dir := filepath.Join(e.tmp, fmt.Sprintf("dist-%d", idx))
	defer os.RemoveAll(dir)
	failed := func(jobs int, err error) (campaign, bool) {
		out.attempted += jobs
		out.failed += jobs
		fmt.Fprintln(e.log, "sensorbench: distributed campaign failed:", err)
		return campaign{}, false
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	root := rec.begin(run, 0, "campaign")
	sp := rec.begin(run, root.id, "experiments.jobs_build")
	jobs := experiments.SurfaceJobs(pa, false, 1)
	order.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	sp.end()

	sp = rec.begin(run, root.id, "dist.coordinator_setup")
	cache := engine.NewCache(dir, experiments.CacheSalt)
	links := &resultLinks{ids: map[string]int64{}}
	var sink engine.ResultSink = cache
	if rec != nil {
		sink = &timedSink{ResultSink: cache, rec: rec, run: run, links: links}
	}
	coord, err := dist.NewCoordinator(dist.Config{Sink: sink, Shards: workers,
		LeaseTTL: distLeaseTTL, IngestBurst: 4 * len(jobs)}, jobs)
	if err != nil {
		return failed(len(jobs), err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return failed(len(jobs), err)
	}
	hs := &http.Server{Handler: coord, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	sp.end()
	setup := time.Since(start)

	phase := rec.begin(run, root.id, "dist.workers")
	wts := make([]*workerTransport, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range wts {
		wt := &workerTransport{base: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
			rec: rec, run: run, span: rec.reserve(), links: links}
		wts[w] = wt
		wjobs := jobs
		if rec != nil {
			wjobs = wt.wrap(jobs)
		}
		wk, err := dist.NewWorker(dist.WorkerConfig{
			ID:      fmt.Sprintf("bench-%d", w),
			BaseURL: "http://" + ln.Addr().String(),
			Engine:  engine.New(engine.Config{Workers: 1, Cache: engine.NewCache("", experiments.CacheSalt)}),
			Jobs:    wjobs,
			Client:  &http.Client{Transport: wt, Timeout: 30 * time.Second},
		})
		if err != nil {
			errs[w] = err
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			began := time.Now()
			_, errs[w] = wk.Run(ctx)
			rec.addAs(wt.span, run, phase.id, "dist.worker", began, time.Now())
		}()
	}
	wg.Wait()
	phase.end()

	sp = rec.begin(run, root.id, "dist.shutdown")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(e.log, "sensorbench: coordinator shutdown:", err)
	}
	cancel()
	<-served
	for _, wt := range wts {
		wt.base.CloseIdleConnections()
	}
	sp.end()

	sp = rec.begin(run, root.id, "engine.merge")
	merge := engine.New(engine.Config{Workers: workers,
		Cache: engine.NewCache(dir, experiments.CacheSalt), CacheOnly: true})
	surf, err := experiments.AnalyticSurfaceCtx(ctx, merge, pa)
	sp.end()
	var fig bytes.Buffer
	if err == nil {
		sp = rec.begin(run, root.id, "experiments.render")
		err = experiments.Fig4(surf).Render(&fig)
		sp.end()
	}
	wall := time.Since(start)
	root.end()
	runtime.ReadMemStats(&after)

	st := coord.Stats()
	workerErrs := 0
	for w, werr := range errs {
		if werr != nil {
			workerErrs++
			fmt.Fprintf(e.log, "sensorbench: dist worker %d: %v\n", w, werr)
		}
	}
	if err != nil {
		return failed(len(jobs), fmt.Errorf("merge: %w", err))
	}
	out.attempted += len(jobs)
	out.failed += st.Failed + workerErrs
	if st.Ingested != len(jobs) {
		out.mismatch("dist: coordinator ingested %d results, want %d", st.Ingested, len(jobs))
	}
	if d := cache.Stats().IngestDupes; d != 0 {
		out.mismatch("dist: %d duplicate ingests reached the cache", d)
	}
	if !bytes.Equal(fig.Bytes(), want) {
		out.mismatch("dist: merged Fig. 4 differs from the local run's")
	}
	c := campaign{wall: wall, setup: []float64{setup.Seconds()}, alloc: after.TotalAlloc - before.TotalAlloc}
	for _, wt := range wts {
		c.ops = append(c.ops, wt.roundTrips...)
	}
	if dl != nil {
		dl.add(st, wts, dirBytes(dir))
	}
	return c, true
}

// dirBytes is the total size of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// workerTransport is one dist worker's HTTP transport, timing the
// worker's protocol requests. A worker's lease and result requests are
// sequential (only heartbeats run beside them), so the time from a
// lease request to the next accepted result is one job's round trip.
// Traced, it also records a span per request and the gaps between
// them: the worker's sleeps before asking again (dist.backoff) and the
// engine's dispatch around each job (engine.dispatch).
type workerTransport struct {
	base  *http.Transport
	rec   *recorder
	run   int
	span  int64 // the worker's span: parent of everything below
	links *resultLinks

	mu         sync.Mutex
	leaseStart time.Time
	roundTrips []float64 // ms, lease request to accepted result

	leaseMs, resultMs []float64
	heartbeats, posts int
	busy              time.Duration // job execution plus encoding
	prevPath          string
	prevStatus        int
	prevEnd, jobEnd   time.Time
}

// RoundTrip implements http.RoundTripper.
func (t *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	var resultID int64
	if t.rec != nil && path == dist.PathResult {
		resultID = t.linkResult(req)
	}
	start := time.Now()
	t.mu.Lock()
	if path == dist.PathLease {
		t.leaseStart = start
	}
	if t.rec != nil && path != dist.PathHeartbeat && path == t.prevPath &&
		(path == dist.PathLease || t.prevStatus != http.StatusOK) {
		// A lease after a lease that granted nothing, or a post after a
		// refused one: the worker slept before asking again.
		t.rec.add(t.run, t.span, "dist.backoff", t.prevEnd, start)
	}
	t.mu.Unlock()
	res, err := t.base.RoundTrip(req)
	if err != nil {
		t.finish(path, 0, start, resultID)
		return nil, err
	}
	res.Body = &bodyEnd{ReadCloser: res.Body, done: func() { t.finish(path, res.StatusCode, start, resultID) }}
	return res, nil
}

// bodyEnd calls done once, when the response body is closed: the
// request's end as the worker sees it.
type bodyEnd struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *bodyEnd) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func (t *workerTransport) finish(path string, status int, start time.Time, resultID int64) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if path == dist.PathResult && status == http.StatusOK && !t.leaseStart.IsZero() {
		t.roundTrips = append(t.roundTrips, ms(end.Sub(t.leaseStart)))
		t.leaseStart = time.Time{}
	}
	if t.rec == nil {
		return
	}
	switch path {
	case dist.PathLease:
		t.leaseMs = append(t.leaseMs, ms(end.Sub(start)))
		t.rec.add(t.run, t.span, "dist.lease", start, end)
	case dist.PathResult:
		t.resultMs = append(t.resultMs, ms(end.Sub(start)))
		t.posts++
		t.rec.addAs(resultID, t.run, t.span, "dist.result", start, end)
	case dist.PathHeartbeat:
		t.heartbeats++
		return
	}
	t.prevPath, t.prevStatus, t.prevEnd = path, status, end
}

// linkResult reserves the span ID of a result post and files it under
// the posted fingerprint, so the coordinator-side ingest of that result
// can name the post as its parent.
func (t *workerTransport) linkResult(req *http.Request) int64 {
	id := t.rec.reserve()
	if req.GetBody == nil {
		return id
	}
	body, err := req.GetBody()
	if err != nil {
		return id
	}
	defer body.Close()
	var rr dist.ResultRequest
	if json.NewDecoder(body).Decode(&rr) == nil {
		t.links.put(rr.Fingerprint, id)
	}
	return id
}

// wrap returns the worker's view of the job set: each job timed as an
// analytic.point span, its encoding as engine.encode, and the gaps
// around them — lease received to job start, job end to encode start —
// as engine.dispatch.
func (t *workerTransport) wrap(jobs []engine.Job) []engine.Job {
	out := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		out[i] = &tracedJob{Job: j, rec: t.rec, run: t.run, parent: t.span, name: "analytic.point",
			onRun: t.ran, onEncode: t.encoded}
	}
	return out
}

func (t *workerTransport) ran(start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.prevPath == dist.PathLease {
		t.rec.add(t.run, t.span, "engine.dispatch", t.prevEnd, start)
	}
	t.jobEnd = end
	t.busy += end.Sub(start)
}

func (t *workerTransport) encoded(start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec.add(t.run, t.span, "engine.encode", start, end)
	if !t.jobEnd.IsZero() {
		t.rec.add(t.run, t.span, "engine.dispatch", t.jobEnd, start)
		t.jobEnd = time.Time{}
	}
	t.busy += end.Sub(start)
}

// tracedJob wraps an engine job so each execution records a span under
// parent; onRun and onEncode, when set, observe the execution and the
// result encoding.
type tracedJob struct {
	engine.Job
	rec    *recorder
	run    int
	parent int64
	name   string
	// id and dur describe the last execution.
	id  int64
	dur time.Duration

	onRun, onEncode func(start, end time.Time)
}

// Run implements engine.Job.
func (j *tracedJob) Run(ctx context.Context) (any, error) {
	start := time.Now()
	v, err := j.Job.Run(ctx)
	end := time.Now()
	j.id = j.rec.add(j.run, j.parent, j.name, start, end)
	j.dur = end.Sub(start)
	if j.onRun != nil {
		j.onRun(start, end)
	}
	return v, err
}

// ResultCodec implements engine.Codec, timing the encoder.
func (j *tracedJob) ResultCodec() (func(any) ([]byte, error), func([]byte) (any, error)) {
	c, ok := j.Job.(engine.Codec)
	if !ok {
		return nil, nil
	}
	encode, decode := c.ResultCodec()
	if encode == nil || j.onEncode == nil {
		return encode, decode
	}
	return func(v any) ([]byte, error) {
		start := time.Now()
		b, err := encode(v)
		j.onEncode(start, time.Now())
		return b, err
	}, decode
}

// resultLinks maps a posted fingerprint to its result post's span.
type resultLinks struct {
	mu  sync.Mutex
	ids map[string]int64
}

func (l *resultLinks) put(fp string, id int64) {
	l.mu.Lock()
	l.ids[fp] = id
	l.mu.Unlock()
}

func (l *resultLinks) get(fp string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ids[fp]
}

// timedSink is the coordinator's result sink with each ingest timed: an
// engine.ingest span under the result post that carried it.
type timedSink struct {
	engine.ResultSink
	rec   *recorder
	run   int
	links *resultLinks
}

// IngestResult implements engine.ResultSink.
func (s *timedSink) IngestResult(fp string, payload []byte) error {
	start := time.Now()
	err := s.ResultSink.IngestResult(fp, payload)
	s.rec.add(s.run, s.links.get(fp), "engine.ingest", start, time.Now())
	return err
}

// distLayers accumulates the counts of a traced run's campaigns.
type distLayers struct {
	campaigns                                            int
	leaseMs, resultMs                                    []float64
	heartbeats, posts                                    int
	backpressured, steals, duplicates, expired, ingested int
	busy                                                 time.Duration
	cacheBytes                                           int64
}

func (d *distLayers) add(st dist.Stats, wts []*workerTransport, cacheBytes int64) {
	d.campaigns++
	d.backpressured += st.Backpressured
	d.steals += st.Steals
	d.duplicates += st.Duplicates
	d.expired += st.Expired
	d.ingested += st.Ingested
	d.cacheBytes += cacheBytes
	for _, wt := range wts {
		wt.mu.Lock()
		d.leaseMs = append(d.leaseMs, wt.leaseMs...)
		d.resultMs = append(d.resultMs, wt.resultMs...)
		d.heartbeats += wt.heartbeats
		d.posts += wt.posts
		d.busy += wt.busy
		wt.mu.Unlock()
	}
}

// distLayerMetrics reports a traced dist-analytic run's per-layer
// metrics, each per campaign.
func distLayerMetrics(out *outcome, spans []span, plain, traced []campaign, d *distLayers) {
	st := summarise(spans)
	per := func(v float64) float64 { return ratio(v, float64(d.campaigns)) }
	self := func(name string) float64 { return per(st.self[name]) }
	l := &out.layers
	l.add("analytic.point_s", "s", self("analytic.point"), st.count["analytic.point"])
	l.add("experiments.jobs_build_s", "s", self("experiments.jobs_build"), st.count["experiments.jobs_build"])
	l.add("experiments.render_s", "s", self("experiments.render"), st.count["experiments.render"])
	l.add("engine.dispatch_s", "s", self("engine.dispatch"), st.count["engine.dispatch"])
	l.add("engine.encode_s", "s", self("engine.encode"), st.count["engine.encode"])
	l.add("engine.ingest_s", "s", self("engine.ingest"), st.count["engine.ingest"])
	l.add("engine.ingest_calls", "count", per(float64(st.count["engine.ingest"])), 0)
	l.add("engine.merge_s", "s", self("engine.merge"), st.count["engine.merge"])
	l.add("engine.cache_bytes", "bytes", per(float64(d.cacheBytes)), 0)
	l.addQuantile("dist.lease_rtt_ms.p50", "ms", d.leaseMs, 0.5)
	l.addQuantile("dist.lease_rtt_ms.p99", "ms", d.leaseMs, 0.99)
	l.addQuantile("dist.result_rtt_ms.p50", "ms", d.resultMs, 0.5)
	l.addQuantile("dist.result_rtt_ms.p99", "ms", d.resultMs, 0.99)
	l.add("dist.heartbeats", "count", per(float64(d.heartbeats)), 0)
	l.add("dist.backpressured", "count", per(float64(d.backpressured)), 0)
	l.add("dist.steals", "count", per(float64(d.steals)), 0)
	l.add("dist.duplicates", "count", per(float64(d.duplicates)), 0)
	l.add("dist.expired", "count", per(float64(d.expired)), 0)
	l.add("dist.backoff_wait_s", "s", self("dist.backoff"), st.count["dist.backoff"])
	l.add("dist.worker_busy_ratio", "ratio", ratio(d.busy.Seconds(), st.total["dist.worker"]), 0)
	l.add("dist.ingest_ratio", "ratio", ratio(float64(d.ingested), float64(d.posts)), d.posts)
	addTraceMetrics(out, spans, plain, traced, "dist", "engine", "analytic")
}

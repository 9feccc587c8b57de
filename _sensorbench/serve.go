package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/optimize"
	"sensornet/internal/serve"
)

// The serve-mixed workload serves a serve.Server, warmed over a disk
// cache holding the quick analytic and sim surfaces and the quick
// shootout, on loopback to an open-loop, seeded mix of /api/optimal,
// /api/surface (one row and full) and /api/shootout (full, one model,
// one cell) reads, drawn uniformly over the candidate paths as
// cmd/loadgen draws them, about a fifth of them revalidating with
// If-None-Match, while a writer POSTs /api/refresh every 500ms. Reads
// take the atomic snapshot fast path; refreshes take the same store's
// rebuild path through the engine cache. The compute layers are idle.

// level is an open-loop read rate, in requests per second, and the
// part of --seconds it runs.
type level struct{ rate, share float64 }

// reported are the levels whose latencies the run reports. Each runs in
// rounds, alternating with quiet refreshes, so a burst of outside noise
// lands in one round instead of a whole metric.
var reported = []level{{opRate, 0.35}, {2000, 0.3}}

// ladder is the fixed climb behind max_qps_p99_5ms, run once after the
// rounds and stopped at the first level that fails. Each level runs at
// least long enough to leave ten samples beyond its p99.
var ladder = []level{
	{500, 0.04}, {1000, 0.04}, {2000, 0.04}, {3000, 0.04}, {4000, 0.04}, {6000, 0.04}, {8000, 0.04},
}

// opRate is the level whose per-round median latencies are the
// end-to-end op metrics.
const opRate = 500

const (
	rounds         = 5
	p99Limit       = 5 * time.Millisecond
	refreshEvery   = 500 * time.Millisecond
	quietRefreshes = 6 // per round
	setups         = 9
	revalidate     = 0.2 // share of reads carrying If-None-Match
	// spanHeader carries "<run>:<span id>" of the client's request span,
	// so the server-side span can name it as its parent.
	spanHeader = "X-Bench-Span"
)

// families are the read route families the handler metrics are split
// by.
var families = []string{"optimal", "surface_row", "surface_full", "shootout"}

// target is one servable read with the body and ETag it answered at
// warm-up, which every later response must reproduce.
type target struct {
	path string
	body []byte
	etag string
}

// pick is one read of the mix.
type pick struct {
	t   *target
	inm bool
}

// mixer draws the seeded read mix the way cmd/loadgen draws its query
// mix: uniformly over the candidate paths.
type mixer struct {
	rng     *rand.Rand
	targets []*target
}

func newMixer(seed int64, targets []*target) *mixer {
	return &mixer{rng: rand.New(rand.NewSource(seed)), targets: targets}
}

func (m *mixer) draw(n int) []pick {
	picks := make([]pick, n)
	for i := range picks {
		picks[i] = pick{t: m.targets[m.rng.Intn(len(m.targets))], inm: m.rng.Float64() < revalidate}
	}
	return picks
}

// readPaths lists every read the mix may send: cmd/loadgen's candidate
// paths for the analytic and sim surfaces (every optimal tuple, every
// surface row, the full surface), then the shootout in full, per model
// and per cell.
func readPaths(pa, ps experiments.Preset) []string {
	var paths []string
	for _, s := range []struct {
		name string
		pre  experiments.Preset
	}{{"analytic", pa}, {"sim", ps}} {
		for _, sel := range optimize.Selectors() {
			for _, rho := range s.pre.Rhos {
				paths = append(paths, fmt.Sprintf("/api/optimal?surface=%s&metric=%s&rho=%g", s.name, sel.Name, rho))
			}
		}
		for _, rho := range s.pre.Rhos {
			paths = append(paths, fmt.Sprintf("/api/surface?surface=%s&rho=%g", s.name, rho))
		}
		paths = append(paths, "/api/surface?surface="+s.name)
	}
	paths = append(paths, "/api/shootout")
	for _, m := range experiments.ShootoutModels() {
		paths = append(paths, "/api/shootout?model="+m.String())
		for _, rho := range experiments.DefaultShootoutRhos() {
			paths = append(paths, fmt.Sprintf("/api/shootout?model=%s&rho=%g", m, rho))
		}
	}
	return paths
}

// familyOf names a request's route family.
func familyOf(u *url.URL) string {
	switch u.Path {
	case "/api/optimal":
		return "optimal"
	case "/api/surface":
		if u.Query().Has("rho") {
			return "surface_row"
		}
		return "surface_full"
	case "/api/shootout":
		return "shootout"
	case "/api/refresh":
		return "refresh"
	}
	return "other"
}

func runServeMixed(ctx context.Context, e *env) (*outcome, error) {
	pa := experiments.QuickAnalytic()
	ps := experiments.QuickSim()
	ps.Seed = presetSeed(e.seed)
	dir := filepath.Join(e.tmp, "serve-cache")
	if err := populate(ctx, dir, pa, ps); err != nil {
		return nil, fmt.Errorf("populating the cache: %w", err)
	}
	out := &outcome{}

	// Set-up is a server built and warmed over the cache; it is
	// repeated for a steady median, and the last one serves.
	var setup, warm []float64
	var srv *serve.Server
	var cache *engine.Cache
	for i := 0; i < setups; i++ {
		start := time.Now()
		cache = engine.NewCache(dir, experiments.CacheSalt)
		eng := engine.New(engine.Config{Workers: workers, Cache: cache, CacheOnly: true})
		s, err := serve.NewCtx(ctx, eng, pa, ps)
		if err != nil {
			return nil, err
		}
		warmStart := time.Now()
		if err := s.Warm(ctx); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		warm = append(warm, time.Since(warmStart).Seconds())
		srv = s
	}

	obs := &serveObs{h: srv, rec: e.rec, handlerUs: map[string][]float64{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: obs, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	readT := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	writeT := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(e.log, "sensorbench: server shutdown:", err)
		}
		<-served
		readT.CloseIdleConnections()
		writeT.CloseIdleConnections()
	}()
	c := &serveClient{base: "http://" + ln.Addr().String(), rec: e.rec,
		reads:  &http.Client{Transport: readT, Timeout: 10 * time.Second},
		writes: &http.Client{Transport: writeT, Timeout: 30 * time.Second}}
	targets, err := c.warmTargets(readPaths(pa, ps))
	if err != nil {
		return nil, err
	}
	mix := newMixer(e.seed, targets)

	// Each round: refreshes with nothing else in flight — the cost of
	// rebuilding the three published campaigns from the cache, repeated
	// with the handler timed in a traced run for the tracing overhead —
	// then the reported levels with the writer refreshing beside them.
	var quiet, allocs, quietTraced []float64
	var levels []levelResult
	byRate := map[float64][]float64{}
	var opP50 []float64
	hits, run := 0.0, 0
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		obs.on.Store(false)
		q, a, h, err := c.quietRefreshes(cache)
		if err != nil {
			return nil, err
		}
		quiet, allocs, hits = append(quiet, q...), append(allocs, a...), hits+h/rounds
		if e.rec != nil {
			obs.on.Store(true)
			q, _, _, err := c.quietRefreshes(cache)
			if err != nil {
				return nil, err
			}
			quietTraced = append(quietTraced, q...)
		}
		for _, lv := range reported {
			run++
			l := c.level(mix, lv.rate, int(lv.rate*lv.share*e.seconds/rounds), run)
			levels = append(levels, l)
			lat := l.latencies()
			byRate[lv.rate] = append(byRate[lv.rate], lat...)
			if lv.rate == opRate {
				if p50, ok := quantile(sorted(lat), 0.5); ok {
					opP50 = append(opP50, p50)
				}
			}
		}
	}

	maxQPS := 0.0
	for _, lv := range ladder {
		if ctx.Err() != nil {
			break
		}
		run++
		l := c.level(mix, lv.rate, int(lv.rate*math.Max(lv.share*e.seconds, 1100/lv.rate)), run)
		levels = append(levels, l)
		if !l.ok {
			break
		}
		maxQPS = lv.rate
	}
	c.report(out)

	out.e2e.add("campaign_s", "s", median(quiet), len(quiet))
	out.e2e.add("alloc_mb", "MB", median(allocs), len(allocs))
	out.e2e.add("setup_s", "s", median(setup), len(setup))
	// op_ms is the median over rounds of each round's median.
	if len(opP50) == 0 {
		return nil, fmt.Errorf("no round at %d qps ran", opRate)
	}
	out.e2e.add("op_ms", "ms", median(opP50), len(opP50))

	r := &out.report
	for _, lv := range reported {
		name := fmt.Sprintf("%gqps", lv.rate)
		r.addQuantile("p50_ms_"+name, "ms", byRate[lv.rate], 0.5)
		r.addQuantile("p99_ms_"+name, "ms", byRate[lv.rate], 0.99)
	}
	var late, underLoad []float64
	for _, lv := range levels {
		for _, s := range lv.shots {
			late = append(late, ms(s.Late()))
		}
		for _, w := range lv.windows {
			underLoad = append(underLoad, ms(w.end.Sub(w.start)))
		}
	}
	r.add("max_qps_p99_5ms", "1/s", maxQPS, 0)
	r.add("refresh_p50_ms", "ms", median(underLoad), len(underLoad))
	r.add("error_rate", "ratio", ratio(float64(out.failed), float64(out.attempted)), out.attempted)
	r.addQuantile("gen.late_ms.p99", "ms", late, 0.99)

	if e.rec != nil {
		serveLayerMetrics(out, e.rec.snapshot(), obs, levels, quiet, quietTraced, warm, hits)
	}
	return out, nil
}

// populate computes the quick analytic and sim surfaces and the quick
// shootout into the disk cache the server reads.
func populate(ctx context.Context, dir string, pa, ps experiments.Preset) error {
	eng := engine.New(engine.Config{Workers: workers, Cache: engine.NewCache(dir, experiments.CacheSalt)})
	if _, err := experiments.AnalyticSurfaceCtx(ctx, eng, pa); err != nil {
		return err
	}
	if _, err := experiments.SimSurfaceCtx(ctx, eng, ps); err != nil {
		return err
	}
	_, err := experiments.ShootoutDataCtx(ctx, eng, ps, nil)
	return err
}

// serveClient sends the workload's requests and checks the answers.
type serveClient struct {
	base          string
	reads, writes *http.Client
	rec           *recorder

	attempted, failed atomic.Int64
	mu                sync.Mutex
	mismatches        []string
	nMismatch         int
}

func (c *serveClient) mismatch(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nMismatch++
	if len(c.mismatches) < 10 {
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	}
}

// report moves the client's counts into out.
func (c *serveClient) report(out *outcome) {
	out.attempted += int(c.attempted.Load())
	out.failed += int(c.failed.Load())
	c.mu.Lock()
	defer c.mu.Unlock()
	out.mismatches = append(out.mismatches, c.mismatches...)
	out.nMismatch += c.nMismatch
}

// warmTargets fetches every candidate read once and keeps those that
// answer 200 (an optimum infeasible at some density is a 404 by
// design), with the body and ETag later answers must reproduce. Every
// route family must keep at least one read.
func (c *serveClient) warmTargets(paths []string) ([]*target, error) {
	var out []*target
	kept := map[string]bool{}
	for _, p := range paths {
		u, err := url.Parse(p)
		if err != nil {
			return nil, err
		}
		res, err := c.reads.Get(c.base + p)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			return nil, err
		}
		if res.StatusCode == http.StatusOK {
			out = append(out, &target{path: p, body: body, etag: res.Header.Get("ETag")})
			kept[familyOf(u)] = true
		}
	}
	for _, f := range families {
		if !kept[f] {
			return nil, fmt.Errorf("no %s read answers 200", f)
		}
	}
	return out, nil
}

// read sends one read of the mix and checks its answer: a 200 must
// carry the warm-up body and ETag and must not answer a matching
// If-None-Match; a 304 must answer one.
func (c *serveClient) read(run int, p pick) bool {
	c.attempted.Add(1)
	req, err := http.NewRequest(http.MethodGet, c.base+p.t.path, nil)
	if err != nil {
		c.failed.Add(1)
		return false
	}
	if p.inm {
		req.Header.Set("If-None-Match", p.t.etag)
	}
	id := c.rec.reserve()
	if c.rec != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d:%d", run, id))
	}
	start := time.Now()
	res, err := c.reads.Do(req)
	if err != nil {
		c.failed.Add(1)
		return false
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	c.rec.addAs(id, run, 0, "http.request", start, time.Now())
	if err != nil || (res.StatusCode != http.StatusOK && res.StatusCode != http.StatusNotModified) {
		c.failed.Add(1)
		return false
	}
	etag := res.Header.Get("ETag")
	switch {
	case res.StatusCode == http.StatusNotModified && (!p.inm || etag != p.t.etag):
		c.mismatch("%s: 304 without a matching If-None-Match", p.t.path)
	case res.StatusCode == http.StatusOK && p.inm:
		c.mismatch("%s: 200 to a matching If-None-Match", p.t.path)
	case res.StatusCode == http.StatusOK && (etag != p.t.etag || !bytes.Equal(body, p.t.body)):
		c.mismatch("%s: answer differs from its warm-up answer", p.t.path)
	}
	return true
}

// refresh POSTs /api/refresh and returns how long it took.
func (c *serveClient) refresh() (time.Duration, error) {
	c.attempted.Add(1)
	start := time.Now()
	res, err := c.writes.Post(c.base+"/api/refresh", "application/json", nil)
	if err != nil {
		c.failed.Add(1)
		return 0, err
	}
	_, err = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	d := time.Since(start)
	if err == nil && res.StatusCode != http.StatusOK {
		err = fmt.Errorf("refresh answered %s", res.Status)
	}
	if err != nil {
		c.failed.Add(1)
	}
	return d, err
}

// quietRefreshes runs refreshes back to back with nothing else in
// flight, returning each one's wall time (s) and allocation (MB), and
// the cache hits per refresh.
func (c *serveClient) quietRefreshes(cache *engine.Cache) (wall, alloc []float64, hits float64, err error) {
	h0 := cache.Stats().Hits
	for i := 0; i < quietRefreshes; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := c.refresh()
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, nil, 0, err
		}
		wall = append(wall, d.Seconds())
		alloc = append(alloc, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	}
	return wall, alloc, float64(cache.Stats().Hits-h0) / quietRefreshes, nil
}

// levelResult is one measured level of the ladder.
type levelResult struct {
	rate    float64
	shots   []shot
	start   time.Time
	windows []window // refreshes beside the level
	// ok: p99 within the limit, every call answered, and no growing
	// backlog.
	ok bool
}

func (l levelResult) latencies() []float64 {
	out := make([]float64, len(l.shots))
	for i, s := range l.shots {
		out[i] = ms(s.Latency())
	}
	return out
}

// window is one refresh's span of wall time.
type window struct{ start, end time.Time }

// level runs n reads of the mix open-loop at rate, with the refresh
// writer beside them, and judges them; run numbers the level in the
// trace.
func (c *serveClient) level(mix *mixer, rate float64, n, run int) levelResult {
	picks := mix.draw(n)
	quit := make(chan struct{})
	done := make(chan []window, 1)
	go func() { done <- c.refreshLoop(quit) }()
	shots, start := openLoop(rate, n, workers, func(k int) bool { return c.read(run, picks[k]) })
	close(quit)
	return levelResult{rate: rate, shots: shots, start: start, windows: <-done, ok: levelOK(shots)}
}

// refreshLoop POSTs a refresh every refreshEvery, the first half a
// period in, until stop closes. The fixed phase gives every level of a
// given length the same number of refreshes at the same offsets, so the
// tail latencies they cause do not depend on where a level happens to
// fall against the writer.
func (c *serveClient) refreshLoop(stop <-chan struct{}) []window {
	timer := time.NewTimer(refreshEvery / 2)
	defer timer.Stop()
	var ws []window
	for {
		select {
		case <-stop:
			return ws
		case <-timer.C:
		}
		timer.Reset(refreshEvery)
		start := time.Now()
		if _, err := c.refresh(); err == nil {
			ws = append(ws, window{start, time.Now()})
		}
	}
}

// levelOK reports whether a level met the latency limit without a
// growing backlog: every call answered, p99 within p99Limit, and the
// median wait for a free sender in the level's second half no more than
// a millisecond above the first half's. Medians, so a refresh landing
// late in the level is not read as a backlog.
func levelOK(shots []shot) bool {
	lat := make([]float64, len(shots))
	queued := make([]float64, len(shots))
	for i, s := range shots {
		if !s.OK {
			return false
		}
		lat[i], queued[i] = ms(s.Latency()), ms(s.Queued())
	}
	if p99, _ := quantile(sorted(lat), 0.99); p99 > ms(p99Limit) {
		return false
	}
	half := len(shots) / 2
	return median(queued[half:]) <= median(queued[:half])+1
}

// serveObs wraps the server's handler. Once on (traced runs only), it
// records a serve.<family> span per request, under the client's
// http.request span named in the span header, and counts revalidations
// where the handler answers them.
type serveObs struct {
	h   http.Handler
	rec *recorder
	on  atomic.Bool

	mu                       sync.Mutex
	handlerUs                map[string][]float64
	refreshMs                []float64
	revalidated, notModified int
}

func (o *serveObs) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if o.rec == nil || !o.on.Load() {
		o.h.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	o.h.ServeHTTP(sw, r)
	end := time.Now()
	fam := familyOf(r.URL)
	var run int
	var parent int64
	if h := r.Header.Get(spanHeader); h != "" {
		a, b, _ := strings.Cut(h, ":")
		run, _ = strconv.Atoi(a)
		parent, _ = strconv.ParseInt(b, 10, 64)
	}
	o.rec.add(run, parent, "serve."+fam, start, end)
	o.mu.Lock()
	defer o.mu.Unlock()
	if fam == "refresh" {
		o.refreshMs = append(o.refreshMs, ms(end.Sub(start)))
	} else {
		o.handlerUs[fam] = append(o.handlerUs[fam], float64(end.Sub(start))/float64(time.Microsecond))
	}
	if r.Header.Get("If-None-Match") != "" {
		o.revalidated++
		if sw.status == http.StatusNotModified {
			o.notModified++
		}
	}
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// serveLayerMetrics reports a traced serve-mixed run's per-layer
// metrics.
func serveLayerMetrics(out *outcome, spans []span, o *serveObs, levels []levelResult,
	quiet, quietTraced, warm []float64, hits float64) {

	l := &out.layers
	o.mu.Lock()
	for _, f := range families {
		l.addQuantile("serve.handler_us.p50."+f, "us", o.handlerUs[f], 0.5)
		l.addQuantile("serve.handler_us.p99."+f, "us", o.handlerUs[f], 0.99)
	}
	l.add("serve.refresh_ms", "ms", median(o.refreshMs), len(o.refreshMs))
	l.add("serve.not_modified_ratio", "ratio", ratio(float64(o.notModified), float64(o.revalidated)), o.revalidated)
	o.mu.Unlock()

	// Reads whose lifetime overlapped a refresh under load.
	var during []float64
	for _, lv := range levels {
		for _, s := range lv.shots {
			from, to := lv.start.Add(s.Due), lv.start.Add(s.Done)
			for _, w := range lv.windows {
				if from.Before(w.end) && to.After(w.start) {
					during = append(during, ms(s.Latency()))
					break
				}
			}
		}
	}
	l.addQuantile("serve.p99_ms_during_refresh", "ms", during, 0.99)
	l.add("serve.warm_s", "s", median(warm), len(warm))
	l.add("engine.cache_hits_per_refresh", "count", hits, 0)

	// The client's request span minus the handler's: the loopback
	// transport, both HTTP stacks and the client's own work.
	child := map[int64]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	var transport []float64
	for _, s := range spans {
		if s.Name == "http.request" {
			transport = append(transport, 1e3*math.Max(0, s.dur()-child[s.ID]))
		}
	}
	l.addQuantile("http.transport_ms.p50", "ms", transport, 0.5)
	l.addQuantile("http.transport_ms.p99", "ms", transport, 0.99)

	l.add("trace.overhead_s", "s", median(quietTraced)-median(quiet), len(quietTraced))
	l.add("trace.layer_share", "ratio", layerShare(spans, "serve", "http", "engine"), 0)
	l.add("trace.spans", "count", float64(len(spans)), 0)
}

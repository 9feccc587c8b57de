// Snapshot-store tests: steady-state serving is zero cache reads and
// byte-stable across /api/refresh; a refresh keeps every published
// table without a cache read; cold surfaces coalesce N racing requests
// into one engine load; an admission Budget turns misses into bounded
// write-through fills.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/serve"
)

// rawGet returns one response's status and body bytes.
func rawGet(srv *serve.Server, method, url string) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
	return rec.Code, rec.Body.Bytes()
}

func decodeJSON(t *testing.T, body []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
}

// steadyURLs is the hammered query mix: optimal and surface answers
// for both endpoints' shapes.
var steadyURLs = []string{
	"/api/optimal?surface=analytic&metric=reach&rho=40",
	"/api/optimal?surface=analytic&metric=energy&rho=100",
	"/api/surface?surface=analytic",
	"/api/surface?surface=analytic&rho=40",
}

// TestServeSteadyStateZeroCacheReads pins the store's acceptance
// property: once the snapshot is built, serving performs ZERO cache
// reads — not just zero misses, zero reads of any kind.
func TestServeSteadyStateZeroCacheReads(t *testing.T) {
	dir := t.TempDir()
	pa, _ := testPresets()
	warmAnalyticOnly(t, dir, pa)
	srv, cache := newServer(t, dir)

	// First hit builds the snapshot: the one and only pass over the
	// cache.
	if code, _ := rawGet(srv, "GET", steadyURLs[0]); code != http.StatusOK {
		t.Fatalf("warm-up request: status %d", code)
	}
	before := cache.Stats()
	if before.Hits == 0 {
		t.Fatal("snapshot build read nothing from the warm cache")
	}
	for i := 0; i < 50; i++ {
		for _, url := range steadyURLs {
			if code, body := rawGet(srv, "GET", url); code != http.StatusOK || len(body) == 0 {
				t.Fatalf("GET %s: status %d, %d bytes", url, code, len(body))
			}
		}
	}
	if after := cache.Stats(); after != before {
		t.Fatalf("steady-state serving touched the cache: %+v -> %+v", before, after)
	}
}

// TestServeColdRequestsCoalesce: N requests and refreshes racing a
// cold surface cost one engine load — the cache (our counting cache)
// sees exactly the reads of a single surface build, not N of them.
func TestServeColdRequestsCoalesce(t *testing.T) {
	dir := t.TempDir()
	pa, _ := testPresets()
	warmAnalyticOnly(t, dir, pa)
	srv, cache := newServer(t, dir)

	const racers, refreshers = 16, 4
	var wg sync.WaitGroup
	codes := make([]int, racers)
	bodies := make([][]byte, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = rawGet(srv, "GET", "/api/surface?surface=analytic")
		}(i)
	}
	for i := 0; i < refreshers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, body := rawGet(srv, "POST", "/api/refresh?surface=analytic"); code != http.StatusOK {
				t.Errorf("racing refresh: status %d body %s", code, body)
			}
		}()
	}
	wg.Wait()

	jobs := len(experiments.SurfaceJobs(pa, false, 1))
	if hits := cache.Stats().Hits; hits != jobs {
		t.Fatalf("%d racing cold requests and %d refreshes cost %d cache reads, want the %d of one coalesced build",
			racers, refreshers, hits, jobs)
	}
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("racer %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("racer %d body differs from racer 0", i)
		}
	}
}

// TestServeByteStableAcrossRefresh hammers reads across /api/refresh
// boundaries under -race: every response stays byte-identical to the
// pre-refresh baseline (the cache is immutable, so a rebuild must
// reproduce the exact bytes), and nothing tears mid-swap.
func TestServeByteStableAcrossRefresh(t *testing.T) {
	dir := t.TempDir()
	pa, _ := testPresets()
	warmAnalyticOnly(t, dir, pa)
	srv, _ := newServer(t, dir)

	baseline := make(map[string][]byte, len(steadyURLs))
	for _, url := range steadyURLs {
		code, body := rawGet(srv, "GET", url)
		if code != http.StatusOK {
			t.Fatalf("baseline GET %s: status %d", url, code)
		}
		baseline[url] = body
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	stop := make(chan struct{})
	for _, url := range steadyURLs {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := rawGet(srv, "GET", url)
				if code != http.StatusOK || !bytes.Equal(body, baseline[url]) {
					select {
					case errc <- &mismatch{url, code, len(body)}:
					default:
					}
					return
				}
			}
		}(url)
	}
	for i := 0; i < 5; i++ {
		if code, body := rawGet(srv, "POST", "/api/refresh?surface=analytic"); code != http.StatusOK {
			t.Errorf("refresh %d: status %d body %s", i, code, body)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

type mismatch struct {
	url  string
	code int
	size int
}

func (m *mismatch) Error() string {
	return "response diverged across refresh: " + m.url
}

// TestServeRefreshKeepsPublishedTables: a published table is final. On
// a warm server, strict or write-through, a refresh of every table and
// of each one alone reads nothing from the cache, admits nothing
// through the budget and leaves every body and ETag byte-identical.
func TestServeRefreshKeepsPublishedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated warm-up in -short mode")
	}
	pa, ps := testPresets()
	filled := t.TempDir()
	warmCache(t, filled, pa, ps)
	warmShootout(t, filled, ps)
	urls := append([]string{
		"/api/optimal?surface=sim&metric=reach&rho=30",
		"/api/surface?surface=sim",
		"/api/shootout",
		"/api/shootout?model=SINR&rho=30",
	}, steadyURLs...)
	type answer struct {
		body []byte
		etag string
	}
	for _, tc := range []struct {
		name   string
		dir    string
		budget *engine.Budget
	}{
		{"strict", filled, nil},
		// Warm fills the empty cache through the budget.
		{"write-through", t.TempDir(), engine.NewBudget(1e6, 1000, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := engine.NewCache(tc.dir, experiments.CacheSalt)
			eng := engine.New(engine.Config{Workers: 4, Cache: cache, CacheOnly: true, Budget: tc.budget})
			srv, err := serve.NewCtx(t.Context(), eng, pa, ps, serve.WithShootoutRhos(shootoutRhos()))
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Warm(t.Context()); err != nil {
				t.Fatal(err)
			}
			served := func() map[string]answer {
				out := make(map[string]answer, len(urls))
				for _, url := range urls {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
					if rec.Code != http.StatusOK {
						t.Fatalf("GET %s: status %d", url, rec.Code)
					}
					out[url] = answer{rec.Body.Bytes(), rec.Header().Get("ETag")}
				}
				return out
			}
			before, cs, bs := served(), cache.Stats(), tc.budget.Stats()
			if tc.budget != nil && bs.Admitted == 0 {
				t.Fatal("the write-through Warm admitted no job")
			}
			for _, url := range []string{"/api/refresh", "/api/refresh?surface=analytic",
				"/api/refresh?surface=sim", "/api/refresh?surface=shootout"} {
				if code, body := rawGet(srv, "POST", url); code != http.StatusOK {
					t.Fatalf("POST %s: status %d body %s", url, code, body)
				}
			}
			if after := cache.Stats(); after != cs {
				t.Fatalf("refreshes of published tables touched the cache: %+v -> %+v", cs, after)
			}
			if after := tc.budget.Stats(); after != bs {
				t.Fatalf("refreshes of published tables moved the budget: %+v -> %+v", bs, after)
			}
			for url, after := range served() {
				if !bytes.Equal(after.body, before[url].body) || after.etag != before[url].etag {
					t.Fatalf("GET %s changed across refreshes", url)
				}
			}
		})
	}
}

// TestServeRefreshReportsPerSurface: refresh rebuilds what it can,
// reports what it cannot, and a failed rebuild leaves the surface's
// published snapshot serving.
func TestServeRefreshReportsPerSurface(t *testing.T) {
	dir := t.TempDir()
	pa, _ := testPresets()
	warmAnalyticOnly(t, dir, pa) // sim rows stay unpublished
	srv, _ := newServer(t, dir)

	_, before := rawGet(srv, "GET", "/api/surface?surface=analytic")

	code, body := rawGet(srv, "POST", "/api/refresh")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("refresh with sim unpublished: status %d, want 503; body %s", code, body)
	}
	var results []struct {
		Surface     string   `json:"surface"`
		OK          bool     `json:"ok"`
		Error       string   `json:"error"`
		MissingJobs []string `json:"missingJobs"`
	}
	decodeJSON(t, body, &results)
	if len(results) != 3 || results[0].Surface != "analytic" ||
		results[1].Surface != "sim" || results[2].Surface != "shootout" {
		t.Fatalf("refresh results %+v", results)
	}
	if !results[0].OK || results[0].Error != "" {
		t.Fatalf("analytic rebuild should succeed: %+v", results[0])
	}
	for _, res := range results[1:] {
		if res.OK || res.Error == "" || len(res.MissingJobs) == 0 {
			t.Fatalf("%s rebuild should fail naming missing jobs: %+v", res.Surface, res)
		}
	}

	// The analytic snapshot survived the partial failure, byte for byte.
	if code, after := rawGet(srv, "GET", "/api/surface?surface=analytic"); code != http.StatusOK || !bytes.Equal(after, before) {
		t.Fatalf("analytic serving degraded after partial refresh: status %d", code)
	}

	if code, _ := rawGet(srv, "POST", "/api/refresh?surface=nope"); code != http.StatusBadRequest {
		t.Fatalf("refresh with bad surface: status %d, want 400", code)
	}
}

// TestServeWriteThroughBudget: a cache-only engine with an admission
// Budget fills a cold surface by computing it once, write-through; the
// strict default (nil budget) keeps 503ing — and the fill is bounded
// by the budget, not by demand.
func TestServeWriteThroughBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("computes surface rows in write-through mode")
	}
	pa, ps := testPresets()
	jobs := len(experiments.SurfaceJobs(pa, false, 1))

	cache := engine.NewCache(t.TempDir(), experiments.CacheSalt)
	eng := engine.New(engine.Config{Workers: 4, Cache: cache, CacheOnly: true,
		Budget: engine.NewBudget(1e6, jobs, 0)})
	srv, err := serve.NewCtx(t.Context(), eng, pa, ps)
	if err != nil {
		t.Fatal(err)
	}

	code, body := rawGet(srv, "GET", "/api/surface?surface=analytic")
	if code != http.StatusOK {
		t.Fatalf("write-through fill: status %d body %s", code, body)
	}
	cs := cache.Stats()
	if cs.Stores != jobs {
		t.Fatalf("write-through stored %d rows, want the %d analytic jobs", cs.Stores, jobs)
	}

	// A strict engine over the same cache pins the degradation path:
	// unfilled sim rows still 503, while the rows the budgeted engine
	// wrote through now serve without recomputation.
	drained := engine.New(engine.Config{Workers: 4, Cache: cache, CacheOnly: true})
	srv2, err := serve.NewCtx(t.Context(), drained, pa, ps)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := rawGet(srv2, "GET", "/api/surface?surface=sim"); code != http.StatusServiceUnavailable {
		t.Fatalf("strict engine over unfilled sim rows: status %d, want 503", code)
	}
	// And the rows the budgeted engine filled serve strictly now.
	if code, _ := rawGet(srv2, "GET", "/api/surface?surface=analytic"); code != http.StatusOK {
		t.Fatalf("strict serving of write-through-filled rows: status %d", code)
	}
}

// TestServeHealthSnapshots: /healthz reports which snapshots are
// built and the budget stats when one is configured.
func TestServeHealthSnapshots(t *testing.T) {
	dir := t.TempDir()
	pa, _ := testPresets()
	warmAnalyticOnly(t, dir, pa)
	srv, _ := newServer(t, dir)

	var health struct {
		Snapshots map[string]bool     `json:"snapshots"`
		Budget    *engine.BudgetStats `json:"budget"`
	}
	_, body := rawGet(srv, "GET", "/healthz")
	decodeJSON(t, body, &health)
	if health.Snapshots["analytic"] || health.Snapshots["sim"] {
		t.Fatalf("cold server reports built snapshots: %+v", health.Snapshots)
	}
	if health.Budget != nil {
		t.Fatalf("strict server reports a budget: %+v", health.Budget)
	}

	rawGet(srv, "GET", "/api/surface?surface=analytic")
	_, body = rawGet(srv, "GET", "/healthz")
	decodeJSON(t, body, &health)
	if !health.Snapshots["analytic"] || health.Snapshots["sim"] {
		t.Fatalf("after an analytic request: snapshots %+v", health.Snapshots)
	}
}

// TestServeWarm prebuilds snapshots so the first request is already
// steady-state.
func TestServeWarm(t *testing.T) {
	dir := t.TempDir()
	pa, _ := testPresets()
	warmAnalyticOnly(t, dir, pa)
	srv, cache := newServer(t, dir)

	// Warm returns the sim surface's missing-rows error but still
	// publishes the analytic snapshot.
	if err := srv.Warm(context.Background()); err == nil {
		t.Fatal("Warm over a half-populated cache should report the cold surface")
	}
	before := cache.Stats()
	if code, _ := rawGet(srv, "GET", "/api/surface?surface=analytic"); code != http.StatusOK {
		t.Fatal("warmed surface not served")
	}
	if after := cache.Stats(); after != before {
		t.Fatalf("request after Warm read the cache: %+v -> %+v", before, after)
	}
}

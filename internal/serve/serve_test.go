// Serving-mode tests: the acceptance property is that tuning queries
// are answered entirely from the shared cache — zero recomputed jobs,
// asserted through engine CacheStats — and that unpublished surfaces
// fail with 503 instead of silently recomputing.
package serve_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/serve"
)

func testPresets() (experiments.Preset, experiments.Preset) {
	pa := experiments.QuickAnalytic()
	pa.Rhos = []float64{40, 100}
	ps := experiments.QuickSim()
	ps.Rhos = []float64{30, 80}
	ps.Grid = []float64{0.05, 0.2, 0.6, 1}
	ps.Runs = 3
	return pa, ps
}

// warmCache computes both presets' surface jobs into dir, exactly as
// shard processes would.
func warmCache(t testing.TB, dir string, pa, ps experiments.Preset) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 4,
		Cache: engine.NewCache(dir, experiments.CacheSalt)})
	jobs := experiments.SurfaceJobs(pa, false, 4)
	jobs = append(jobs, experiments.SurfaceJobs(ps, true, 4)...)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
}

// newServer builds a cache-only server over dir and returns the cache
// whose stats prove (non-)recomputation.
func newServer(t testing.TB, dir string) (*serve.Server, *engine.Cache) {
	t.Helper()
	pa, ps := testPresets()
	cache := engine.NewCache(dir, experiments.CacheSalt)
	eng := engine.New(engine.Config{Workers: 4, Cache: cache, CacheOnly: true})
	srv, err := serve.NewCtx(t.Context(), eng, pa, ps)
	if err != nil {
		t.Fatal(err)
	}
	return srv, cache
}

// get performs one request and decodes the JSON body into out.
func get(t *testing.T, srv *serve.Server, url string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type = %q", url, ct)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestServeRejectsWrongEngines(t *testing.T) {
	pa, ps := testPresets()
	if _, err := serve.NewCtx(t.Context(), engine.New(engine.Config{Workers: 1}), pa, ps); err == nil {
		t.Error("New accepted a computing (non-cache-only) engine")
	}
	if _, err := serve.NewCtx(t.Context(), engine.New(engine.Config{Workers: 1, CacheOnly: true,
		Shard: engine.ShardSpec{Index: 0, Total: 2}}), pa, ps); err == nil {
		t.Error("New accepted a sharded engine")
	}
}

// TestServeOptimalFromCacheOnly is the acceptance property: an
// optimal-(s, p) query against a warmed cache answers 200 with a grid
// point, and the engine recomputes zero jobs doing so.
func TestServeOptimalFromCacheOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated warm-up in -short mode")
	}
	dir := t.TempDir()
	pa, ps := testPresets()
	warmCache(t, dir, pa, ps)
	srv, cache := newServer(t, dir)

	var body struct {
		Metric string  `json:"metric"`
		Rho    float64 `json:"rho"`
		S      int     `json:"s"`
		P      float64 `json:"p"`
		Value  float64 `json:"value"`
	}
	for _, q := range []string{
		"/api/optimal?surface=analytic&metric=reach&rho=40",
		"/api/optimal?surface=analytic&metric=energy&rho=100",
		"/api/optimal?surface=sim&metric=reach&rho=30",
	} {
		if code := get(t, srv, q, &body); code != http.StatusOK {
			t.Fatalf("GET %s: status %d", q, code)
		}
		if body.P <= 0 || body.P > 1 {
			t.Fatalf("GET %s: optimal p = %g not a grid probability", q, body.P)
		}
		if body.S <= 0 {
			t.Fatalf("GET %s: s = %d", q, body.S)
		}
	}
	if cs := cache.Stats(); cs.Misses != 0 || cs.Stores != 0 {
		t.Fatalf("serving recomputed jobs: cache stats %+v, want 0 misses and 0 stores", cs)
	}
}

func TestServeSurfaceFullAndSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated warm-up in -short mode")
	}
	dir := t.TempDir()
	pa, ps := testPresets()
	warmCache(t, dir, pa, ps)
	srv, cache := newServer(t, dir)

	var body struct {
		S    int       `json:"s"`
		Rhos []float64 `json:"rhos"`
		Rows [][]struct {
			P        float64  `json:"p"`
			ReachAtL *float64 `json:"reachAtL"`
		} `json:"rows"`
	}
	if code := get(t, srv, "/api/surface?surface=analytic", &body); code != http.StatusOK {
		t.Fatalf("full surface: status %d", code)
	}
	if len(body.Rhos) != len(pa.Rhos) || len(body.Rows) != len(pa.Rhos) {
		t.Fatalf("full surface: %d rhos / %d rows, want %d", len(body.Rhos), len(body.Rows), len(pa.Rhos))
	}
	if len(body.Rows[0]) != len(pa.Grid) {
		t.Fatalf("surface row has %d points, want the %d-point grid", len(body.Rows[0]), len(pa.Grid))
	}

	if code := get(t, srv, "/api/surface?surface=analytic&rho=100", &body); code != http.StatusOK {
		t.Fatalf("surface slice: status %d", code)
	}
	if len(body.Rows) != 1 || len(body.Rhos) != 1 || body.Rhos[0] != 100 {
		t.Fatalf("surface slice: rhos %v with %d rows, want the single rho=100 row", body.Rhos, len(body.Rows))
	}
	if cs := cache.Stats(); cs.Misses != 0 || cs.Stores != 0 {
		t.Fatalf("serving recomputed jobs: cache stats %+v", cs)
	}
}

func TestServeHealthCacheAndMetrics(t *testing.T) {
	srv, _ := newServer(t, t.TempDir())

	var health struct {
		Status    string `json:"status"`
		CacheOnly bool   `json:"cacheOnly"`
		HasCache  bool   `json:"hasCache"`
	}
	if code := get(t, srv, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Status != "ok" || !health.CacheOnly || !health.HasCache {
		t.Fatalf("healthz: %+v", health)
	}

	if code := get(t, srv, "/api/cache", &struct{}{}); code != http.StatusOK {
		t.Fatalf("/api/cache: status %d", code)
	}

	var metrics []struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	if code := get(t, srv, "/api/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("/api/metrics: status %d", code)
	}
	want := map[string]bool{"reach": true, "latency": true, "energy": true, "budget": true}
	if len(metrics) != len(want) {
		t.Fatalf("metrics = %+v, want the four paper metrics", metrics)
	}
	for _, m := range metrics {
		if !want[m.Name] || m.Description == "" {
			t.Fatalf("metric %+v unexpected or undocumented", m)
		}
	}
}

// TestServeEmptyCache503 pins the no-silent-recompute contract: with
// nothing published, queries fail 503 and name the missing jobs rather
// than computing them.
func TestServeEmptyCache503(t *testing.T) {
	srv, cache := newServer(t, t.TempDir())

	var body struct {
		Error       string   `json:"error"`
		MissingJobs []string `json:"missingJobs"`
	}
	if code := get(t, srv, "/api/optimal?surface=analytic&metric=reach&rho=40", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("optimal on empty cache: status %d, want 503", code)
	}
	if body.Error == "" || len(body.MissingJobs) == 0 {
		t.Fatalf("503 body %+v does not name the unpublished jobs", body)
	}
	if code := get(t, srv, "/api/surface?surface=sim", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("surface on empty cache: status %d, want 503", code)
	}
	if cs := cache.Stats(); cs.Stores != 0 {
		t.Fatalf("empty-cache queries computed and stored jobs: stats %+v", cs)
	}
}

func TestServeBadParams(t *testing.T) {
	srv, _ := newServer(t, t.TempDir())
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/api/optimal?surface=analytic&metric=nope&rho=40", http.StatusBadRequest},
		{"/api/optimal?surface=analytic&metric=reach", http.StatusBadRequest},
		{"/api/optimal?surface=analytic&metric=reach&rho=abc", http.StatusBadRequest},
		{"/api/optimal?surface=nope&metric=reach&rho=40", http.StatusBadRequest},
		{"/api/surface?surface=nope", http.StatusBadRequest},
		{"/api/optimal?metric=reach&rho=40", http.StatusBadRequest},
		// ParseFloat accepts these spellings, but a non-finite rho can
		// never match a grid density: 400, not a confusing 404.
		{"/api/optimal?surface=analytic&metric=reach&rho=NaN", http.StatusBadRequest},
		{"/api/optimal?surface=analytic&metric=reach&rho=Inf", http.StatusBadRequest},
		{"/api/optimal?surface=analytic&metric=reach&rho=-Inf", http.StatusBadRequest},
		{"/api/surface?surface=analytic&rho=nan", http.StatusBadRequest},
		{"/api/surface?surface=analytic&rho=%2Binf", http.StatusBadRequest},
	} {
		var body struct {
			Error string `json:"error"`
		}
		if code := get(t, srv, tc.url, &body); code != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.url, code, tc.want)
		} else if body.Error == "" {
			t.Errorf("GET %s: error body missing the reason", tc.url)
		}
	}
}

// TestServeUnknownRho404 needs a warm cache so the failure is the rho
// lookup, not a missing surface.
func TestServeUnknownRho404(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated warm-up in -short mode")
	}
	dir := t.TempDir()
	pa, ps := testPresets()
	warmCache(t, dir, pa, ps)
	srv, _ := newServer(t, dir)
	for _, q := range []string{
		"/api/optimal?surface=analytic&metric=reach&rho=55",
		"/api/surface?surface=analytic&rho=55",
	} {
		if code := get(t, srv, q, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 for a rho outside the preset grid", q, code)
		}
	}
}

// TestServeRejectsInvalidShootout: a shootout campaign that cannot be
// built fails construction instead of serving ETags of an empty job
// set and answering every /api/shootout with an error.
func TestServeRejectsInvalidShootout(t *testing.T) {
	pa, ps := testPresets()
	eng := engine.New(engine.Config{Workers: 1, CacheOnly: true})
	for _, rho := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := serve.NewCtx(t.Context(), eng, pa, ps, serve.WithShootoutRhos([]float64{rho})); err == nil {
			t.Errorf("NewCtx accepted shootout density %v", rho)
		}
	}
	ps.Runs = 0
	if _, err := serve.NewCtx(t.Context(), eng, pa, ps); err == nil {
		t.Error("NewCtx accepted a sim preset without replications")
	}
}

// TestServeBuildFailure500: a snapshot build that fails for any reason
// other than unpublished rows is a server error, not a bad request.
func TestServeBuildFailure500(t *testing.T) {
	dir := t.TempDir()
	pa, ps := testPresets()
	warmAnalyticOnly(t, dir, pa)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	eng := engine.New(engine.Config{Workers: 4, Cache: engine.NewCache(dir, experiments.CacheSalt), CacheOnly: true})
	srv, err := serve.NewCtx(ctx, eng, pa, ps)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	if code := get(t, srv, "/api/surface?surface=analytic", &body); code != http.StatusInternalServerError {
		t.Fatalf("build on a cancelled base context: status %d, want 500", code)
	}
	if body.Error == "" {
		t.Fatal("500 body missing the reason")
	}
}

// TestServeInfeasibleOptimum404: a metric with no feasible grid point
// at a density answers 404 without a validator, while the surface's
// other metrics still serve.
func TestServeInfeasibleOptimum404(t *testing.T) {
	dir := t.TempDir()
	pa, ps := testPresets()
	pa.Constraints.Reach = 1.01 // no grid point reaches more than every node
	warmAnalyticOnly(t, dir, pa)
	eng := engine.New(engine.Config{Workers: 4, Cache: engine.NewCache(dir, experiments.CacheSalt), CacheOnly: true})
	srv, err := serve.NewCtx(t.Context(), eng, pa, ps)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/optimal?surface=analytic&metric=latency&rho=40", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("infeasible optimum: status %d, want 404", rec.Code)
	}
	if etag := rec.Header().Get("ETag"); etag != "" {
		t.Fatalf("404 carried ETag %q", etag)
	}
	if want := `no feasible grid point for metric \"latency\" at rho=40`; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("404 body %q does not contain %q", rec.Body.String(), want)
	}
	if code := get(t, srv, "/api/optimal?surface=analytic&metric=reach&rho=40", nil); code != http.StatusOK {
		t.Fatalf("feasible metric on the same surface: status %d, want 200", code)
	}
}

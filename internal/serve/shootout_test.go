// Shootout serving tests: the campaign's scheme-model cross is served
// from the cache with the same contract as the surfaces — 503 until
// published, zero recomputation once warm, strong ETags on every
// shape.
package serve_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/serve"
)

func shootoutRhos() []float64 { return []float64{30} }

// warmShootout computes the shootout campaign's jobs into dir, exactly
// as shard or worker processes would.
func warmShootout(t *testing.T, dir string, ps experiments.Preset) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 4,
		Cache: engine.NewCache(dir, experiments.CacheSalt)})
	jobs, err := experiments.ShootoutJobs(ps, shootoutRhos())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
}

// newShootServer builds a cache-only server whose shootout densities
// match warmShootout.
func newShootServer(t *testing.T, dir string) (*serve.Server, *engine.Cache) {
	t.Helper()
	pa, ps := testPresets()
	cache := engine.NewCache(dir, experiments.CacheSalt)
	eng := engine.New(engine.Config{Workers: 4, Cache: cache, CacheOnly: true})
	srv, err := serve.NewCtx(t.Context(), eng, pa, ps, serve.WithShootoutRhos(shootoutRhos()))
	if err != nil {
		t.Fatal(err)
	}
	return srv, cache
}

func TestServeShootoutFromCacheOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated warm-up in -short mode")
	}
	dir := t.TempDir()
	_, ps := testPresets()
	warmShootout(t, dir, ps)
	srv, cache := newShootServer(t, dir)

	var body struct {
		Models []string  `json:"models"`
		Rhos   []float64 `json:"rhos"`
		Rows   []struct {
			Model   string  `json:"model"`
			Rho     float64 `json:"rho"`
			Schemes []struct {
				Scheme   string  `json:"scheme"`
				Display  string  `json:"display"`
				Coverage float64 `json:"coverage"`
			} `json:"schemes"`
			Best map[string]string `json:"best"`
		} `json:"rows"`
	}
	if code := get(t, srv, "/api/shootout", &body); code != http.StatusOK {
		t.Fatalf("full shootout: status %d", code)
	}
	if len(body.Models) != 3 || len(body.Rows) != 3 {
		t.Fatalf("models %v with %d rows, want 3 models x 1 rho", body.Models, len(body.Rows))
	}
	for _, row := range body.Rows {
		if len(row.Schemes) != 4 || row.Schemes[0].Scheme != "flooding" {
			t.Fatalf("row (%s, %g): schemes %+v", row.Model, row.Rho, row.Schemes)
		}
		if len(row.Best) != 4 {
			t.Fatalf("row (%s, %g): best map %v, want the 4 objectives", row.Model, row.Rho, row.Best)
		}
	}

	// Model and rho filters narrow the axes and the rows.
	if code := get(t, srv, "/api/shootout?model=SINR", &body); code != http.StatusOK {
		t.Fatalf("model filter: status %d", code)
	}
	if len(body.Models) != 1 || body.Models[0] != "SINR" || len(body.Rows) != 1 || body.Rows[0].Model != "SINR" {
		t.Fatalf("model filter: models %v, %d rows", body.Models, len(body.Rows))
	}
	if code := get(t, srv, "/api/shootout?model=CAM&rho=30", &body); code != http.StatusOK {
		t.Fatalf("cell filter: status %d", code)
	}
	if len(body.Rows) != 1 || body.Rows[0].Model != "CAM" || body.Rows[0].Rho != 30 {
		t.Fatalf("cell filter rows %+v", body.Rows)
	}

	if cs := cache.Stats(); cs.Misses != 0 || cs.Stores != 0 {
		t.Fatalf("serving recomputed jobs: cache stats %+v", cs)
	}
}

func TestServeShootoutETag(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated warm-up in -short mode")
	}
	dir := t.TempDir()
	_, ps := testPresets()
	warmShootout(t, dir, ps)
	srv, cache := newShootServer(t, dir)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/shootout?model=SINR&rho=30", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("first GET: status %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("200 response carries no ETag")
	}
	body := rec.Body.Bytes()

	// A validator match answers 304 without touching the snapshot.
	before := cache.Stats()
	req := httptest.NewRequest("GET", "/api/shootout?model=SINR&rho=30", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match revalidation: status %d, want 304", rec.Code)
	}
	if after := cache.Stats(); after != before {
		t.Fatalf("revalidation touched the cache: %+v -> %+v", before, after)
	}

	// Equivalent density spellings validate against the same entity.
	req = httptest.NewRequest("GET", "/api/shootout?model=SINR&rho=30.0", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("rho=30.0 revalidation: status %d, want 304", rec.Code)
	}

	// And a plain re-GET reproduces the exact bytes.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/shootout?model=SINR&rho=30", nil))
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatal("re-GET bytes differ from the first response")
	}
}

func TestServeShootoutColdAndBadParams(t *testing.T) {
	srv, cache := newShootServer(t, t.TempDir())

	var body struct {
		Error       string   `json:"error"`
		MissingJobs []string `json:"missingJobs"`
	}
	if code := get(t, srv, "/api/shootout", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("shootout on empty cache: status %d, want 503", code)
	}
	if body.Error == "" || len(body.MissingJobs) == 0 {
		t.Fatalf("503 body %+v does not name the unpublished jobs", body)
	}
	if cs := cache.Stats(); cs.Stores != 0 {
		t.Fatalf("empty-cache query computed and stored jobs: stats %+v", cs)
	}

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/api/shootout?model=nope", http.StatusBadRequest},
		{"/api/shootout?rho=abc", http.StatusBadRequest},
		{"/api/shootout?rho=NaN", http.StatusBadRequest},
		{"/api/shootout?rho=%2Binf", http.StatusBadRequest},
		{"/api/shootout?rho=55", http.StatusNotFound},
	} {
		var errBody struct {
			Error string `json:"error"`
		}
		if code := get(t, srv, tc.url, &errBody); code != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.url, code, tc.want)
		} else if errBody.Error == "" {
			t.Errorf("GET %s: error body missing the reason", tc.url)
		}
	}
}

// TestServeShootoutRefresh: surface=shootout narrows the refresh, and
// a rebuild over a warm cache keeps the bytes stable.
func TestServeShootoutRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated warm-up in -short mode")
	}
	dir := t.TempDir()
	_, ps := testPresets()
	warmShootout(t, dir, ps)
	srv, _ := newShootServer(t, dir)

	_, before := rawGet(srv, "GET", "/api/shootout")
	code, body := rawGet(srv, "POST", "/api/refresh?surface=shootout")
	if code != http.StatusOK {
		t.Fatalf("refresh shootout: status %d body %s", code, body)
	}
	var results []struct {
		Surface string `json:"surface"`
		OK      bool   `json:"ok"`
	}
	decodeJSON(t, body, &results)
	if len(results) != 1 || results[0].Surface != "shootout" || !results[0].OK {
		t.Fatalf("refresh results %+v", results)
	}
	if _, after := rawGet(srv, "GET", "/api/shootout"); !bytes.Equal(after, before) {
		t.Fatal("shootout bytes changed across a refresh over an immutable cache")
	}
}

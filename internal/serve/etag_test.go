// ETag/If-None-Match tests: surface and optimal responses carry strong
// content-addressed validators, a matching If-None-Match answers 304
// without touching the cache, and validators separate exactly the
// requests whose bodies differ.
package serve_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/serve"
)

// warmAnalyticOnly computes just the analytic surface jobs into dir —
// enough for the ETag tests, without the slower simulated rows.
func warmAnalyticOnly(t *testing.T, dir string, pa experiments.Preset) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 4,
		Cache: engine.NewCache(dir, experiments.CacheSalt)})
	if _, err := eng.Run(context.Background(), experiments.SurfaceJobs(pa, false, 4)); err != nil {
		t.Fatal(err)
	}
}

// getETag performs one request with an optional If-None-Match header
// and returns the status, ETag, and body size.
func getETag(t *testing.T, srv *serve.Server, url, ifNoneMatch string) (int, string, int) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("ETag"), rec.Body.Len()
}

func TestETagRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated warm-up in -short mode")
	}
	dir := t.TempDir()
	pa, ps := testPresets()
	warmCache(t, dir, pa, ps)
	srv, cache := newServer(t, dir)

	for _, url := range []string{
		"/api/surface?surface=analytic",
		"/api/surface?surface=analytic&rho=40",
		"/api/surface?surface=sim&rho=30",
		"/api/optimal?surface=analytic&metric=reach&rho=40",
		"/api/optimal?surface=sim&metric=energy&rho=80",
	} {
		code, etag, size := getETag(t, srv, url, "")
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, code)
		}
		if len(etag) < 4 || etag[0] != '"' || etag[len(etag)-1] != '"' {
			t.Fatalf("GET %s: malformed ETag %q", url, etag)
		}
		if size == 0 {
			t.Fatalf("GET %s: empty body", url)
		}

		misses := cache.Stats().Misses
		code2, etag2, size2 := getETag(t, srv, url, etag)
		if code2 != http.StatusNotModified {
			t.Fatalf("GET %s If-None-Match: status %d, want 304", url, code2)
		}
		if etag2 != etag {
			t.Fatalf("GET %s: 304 ETag %q != %q", url, etag2, etag)
		}
		if size2 != 0 {
			t.Fatalf("GET %s: 304 carried a %d-byte body", url, size2)
		}
		// The validator short-circuits before any cache read: that is the
		// point of content addressing the entity identity.
		if after := cache.Stats().Misses; after != misses {
			t.Fatalf("GET %s: 304 path touched the cache (%d -> %d misses)", url, misses, after)
		}
	}
}

// TestETagSeparatesEntities: validators must differ wherever bodies
// can — across endpoints, densities, and metrics.
func TestETagSeparatesEntities(t *testing.T) {
	dir := t.TempDir()
	pa, _ := testPresets()
	warmAnalyticOnly(t, dir, pa)
	srv, _ := newServer(t, dir)

	urls := []string{
		"/api/surface?surface=analytic",
		"/api/surface?surface=analytic&rho=40",
		"/api/surface?surface=analytic&rho=100",
		"/api/optimal?surface=analytic&metric=reach&rho=40",
		"/api/optimal?surface=analytic&metric=energy&rho=40",
		"/api/optimal?surface=analytic&metric=reach&rho=100",
	}
	seen := map[string]string{}
	for _, url := range urls {
		code, etag, _ := getETag(t, srv, url, "")
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, code)
		}
		if prev, dup := seen[etag]; dup {
			t.Fatalf("ETag collision: %s and %s share %q", prev, url, etag)
		}
		seen[etag] = url
	}

	// Normalised densities validate identically: 40 vs 40.0 vs 4e1.
	_, tag1, _ := getETag(t, srv, "/api/surface?surface=analytic&rho=40", "")
	_, tag2, _ := getETag(t, srv, "/api/surface?surface=analytic&rho=40.0", "")
	_, tag3, _ := getETag(t, srv, "/api/surface?surface=analytic&rho=4e1", "")
	if tag1 != tag2 || tag1 != tag3 {
		t.Fatalf("equivalent densities got distinct ETags: %q %q %q", tag1, tag2, tag3)
	}
}

func TestETagMatchSemantics(t *testing.T) {
	dir := t.TempDir()
	pa, _ := testPresets()
	warmAnalyticOnly(t, dir, pa)
	srv, _ := newServer(t, dir)
	const url = "/api/surface?surface=analytic&rho=40"

	_, etag, _ := getETag(t, srv, url, "")

	// * matches anything; lists match if any member matches; a stale or
	// weak validator does not.
	for header, want := range map[string]int{
		"*":                    http.StatusNotModified,
		`"stale", ` + etag:     http.StatusNotModified,
		`"stale"`:              http.StatusOK,
		"W/" + etag:            http.StatusOK,
		`"stale-1", "stale-2"`: http.StatusOK,
	} {
		code, _, _ := getETag(t, srv, url, header)
		if code != want {
			t.Errorf("If-None-Match %q: status %d, want %d", header, code, want)
		}
	}
}

func TestETagAbsentOnErrors(t *testing.T) {
	// A cold cache 503s; no validator may be attached to an error body,
	// or clients would revalidate into a 304 against nothing.
	srv, _ := newServer(t, t.TempDir())
	code, etag, _ := getETag(t, srv, "/api/surface?surface=analytic", "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("cold surface: status %d, want 503", code)
	}
	if etag != "" {
		t.Fatalf("503 carried ETag %q", etag)
	}

	// But the validator issued while the cache was warm still 304s on a
	// cold cache: content addressing makes entities immutable, so a
	// client that has the bytes needs no re-read.
	dir := t.TempDir()
	pa, _ := testPresets()
	warmAnalyticOnly(t, dir, pa)
	warmSrv, _ := newServer(t, dir)
	_, warmTag, _ := getETag(t, warmSrv, "/api/surface?surface=analytic", "")

	coldSrv, _ := newServer(t, t.TempDir())
	code, _, _ = getETag(t, coldSrv, "/api/surface?surface=analytic", warmTag)
	if code != http.StatusNotModified {
		t.Fatalf("cold revalidation: status %d, want 304", code)
	}

	// Bad parameters never 304 and never carry a tag.
	code, etag, _ = getETag(t, srv, "/api/surface?surface=nope", "*")
	if code != http.StatusBadRequest || etag != "" {
		t.Fatalf("bad surface: status %d etag %q", code, etag)
	}
	code, etag, _ = getETag(t, srv, "/api/surface?surface=analytic&rho=77", "*")
	if code != http.StatusNotFound || etag != "" {
		t.Fatalf("unknown rho: status %d etag %q", code, etag)
	}
}

// TestETagWildcardMatchesOnlyARepresentation: If-None-Match: * matches
// only a current representation. On a key with no body (an infeasible
// optimum) it falls through to the route's 404 with no ETag; on a key
// with one it answers 304 with that key's ETag; and a cold table builds
// its snapshot before answering either.
func TestETagWildcardMatchesOnlyARepresentation(t *testing.T) {
	dir := t.TempDir()
	pa, ps := testPresets()
	pa.Constraints.Reach = 1.01 // no grid point reaches more than every node
	warmAnalyticOnly(t, dir, pa)
	newSrv := func() *serve.Server {
		eng := engine.New(engine.Config{Workers: 4, Cache: engine.NewCache(dir, experiments.CacheSalt), CacheOnly: true})
		srv, err := serve.NewCtx(t.Context(), eng, pa, ps)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	const (
		infeasible = "/api/optimal?surface=analytic&metric=latency&rho=40"
		feasible   = "/api/optimal?surface=analytic&metric=reach&rho=40"
	)
	_, feasibleTag, _ := getETag(t, newSrv(), feasible, "")
	if feasibleTag == "" {
		t.Fatal("the feasible optimum answered without an ETag")
	}
	for _, order := range [][]string{{infeasible, feasible}, {feasible, infeasible}} {
		srv := newSrv() // cold: the first request builds the snapshot
		for _, url := range order {
			for _, header := range []string{"*", `"stale", *`, `W/"x", *`} {
				code, etag, _ := getETag(t, srv, url, header)
				switch {
				case url == infeasible && (code != http.StatusNotFound || etag != ""):
					t.Fatalf("GET %s If-None-Match %s: status %d, ETag %q; want 404 and none", url, header, code, etag)
				case url == feasible && (code != http.StatusNotModified || etag != feasibleTag):
					t.Fatalf("GET %s If-None-Match %s: status %d, ETag %q; want 304 and %s", url, header, code, etag, feasibleTag)
				}
			}
		}
	}
}

// Golden wire pin: every response shape the server sends over the
// shared test fixture, reduced to one line per request — status, ETag,
// Content-Type, and the body's sha256 (data routes answering 200 or
// 304) or the body itself (errors and the small JSON endpoints). The
// handler tests decode JSON; this test pins the exact bytes, so any
// rework of the serving tables must reproduce them. testdata/golden.txt
// is written by hand from the failure output, never regenerated to
// make a change pass.
package serve_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"testing"

	"sensornet/internal/experiments"
	"sensornet/internal/optimize"
	"sensornet/internal/serve"
)

// goldenProbe records one golden line per request against srv.
type goldenProbe struct {
	srv   *serve.Server
	lines []string
}

// request performs one request and records its line, returning the
// response's ETag.
func (g *goldenProbe) request(method, target, ifNoneMatch string) string {
	req := httptest.NewRequest(method, target, nil)
	line := method + " " + target
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
		line += " If-None-Match:" + ifNoneMatch
	}
	rec := httptest.NewRecorder()
	g.srv.ServeHTTP(rec, req)
	etag := rec.Header().Get("ETag")
	pinned := strconv.Quote(rec.Body.String())
	path, _, _ := strings.Cut(target, "?")
	data := path == "/api/optimal" || path == "/api/surface" || path == "/api/shootout"
	if data && (rec.Code == http.StatusOK || rec.Code == http.StatusNotModified) {
		sum := sha256.Sum256(rec.Body.Bytes())
		pinned = "sha256:" + hex.EncodeToString(sum[:])
	}
	g.lines = append(g.lines, fmt.Sprintf("%s -> %d etag=%s ct=%s %s",
		line, rec.Code, etag, rec.Header().Get("Content-Type"), pinned))
	return etag
}

// get records a GET and, when it carries an ETag, the revalidation
// with that ETag.
func (g *goldenProbe) get(target string) {
	if etag := g.request("GET", target, ""); etag != "" {
		g.request("GET", target, etag)
	}
}

func TestServeGoldenWire(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated warm-up in -short mode")
	}
	pa, ps := testPresets()
	rhoStr := func(rho float64) string { return strconv.FormatFloat(rho, 'g', -1, 64) }

	// A cold server first: the 503 bodies and the failing refreshes.
	cold, _ := newShootServer(t, t.TempDir())
	g := &goldenProbe{srv: cold}
	for _, target := range []string{
		"/healthz",
		"/api/metrics",
		"/api/optimal?surface=analytic&metric=reach&rho=40",
		"/api/optimal?surface=sim&metric=energy&rho=80",
		"/api/surface?surface=analytic",
		"/api/surface?surface=sim&rho=30",
		"/api/shootout",
		"/api/shootout?model=CAM&rho=30",
	} {
		g.get(target)
	}
	g.request("POST", "/api/refresh", "")
	g.request("POST", "/api/refresh?surface=shootout", "")

	// Then a warm one over both surfaces and the shootout: every
	// optimum, every surface row and dump, every shootout filter.
	dir := t.TempDir()
	warmCache(t, dir, pa, ps)
	warmShootout(t, dir, ps)
	g.srv, _ = newShootServer(t, dir)
	for _, surf := range []struct {
		name string
		pre  experiments.Preset
	}{{"analytic", pa}, {"sim", ps}} {
		for _, sel := range optimize.Selectors() {
			for _, rho := range surf.pre.Rhos {
				g.get("/api/optimal?surface=" + surf.name + "&metric=" + sel.Name + "&rho=" + rhoStr(rho))
			}
		}
		g.get("/api/surface?surface=" + surf.name)
		for _, rho := range surf.pre.Rhos {
			g.get("/api/surface?surface=" + surf.name + "&rho=" + rhoStr(rho))
		}
	}
	models := []string{""}
	for _, m := range experiments.ShootoutModels() {
		models = append(models, m.String())
	}
	rhos := []string{""}
	for _, rho := range shootoutRhos() {
		rhos = append(rhos, rhoStr(rho))
	}
	for _, model := range models {
		for _, rho := range rhos {
			q := url.Values{}
			if model != "" {
				q.Set("model", model)
			}
			if rho != "" {
				q.Set("rho", rho)
			}
			target := "/api/shootout"
			if len(q) > 0 {
				target += "?" + q.Encode()
			}
			g.get(target)
		}
	}
	// Equivalent density spellings alias the canonical grid value.
	for _, rho := range []string{"30.0", "3e1"} {
		g.get("/api/optimal?surface=sim&metric=reach&rho=" + rho)
		g.get("/api/surface?surface=sim&rho=" + rho)
		g.get("/api/shootout?rho=" + rho)
		g.get("/api/shootout?model=SINR&rho=" + rho)
	}
	// Parameter errors: 400 for malformed input, 404 for off-grid.
	for _, target := range []string{
		"/api/optimal?surface=analytic&metric=nope&rho=40",
		"/api/optimal?surface=analytic&metric=reach",
		"/api/optimal?surface=analytic&metric=reach&rho=abc",
		"/api/optimal?surface=analytic&metric=reach&rho=NaN",
		"/api/optimal?surface=nope&metric=reach&rho=40",
		"/api/optimal?surface=shootout&metric=reach&rho=30",
		"/api/optimal?metric=reach&rho=40",
		"/api/optimal?surface=analytic&metric=reach&rho=55",
		"/api/surface?surface=nope",
		"/api/surface?surface=analytic&rho=%2Binf",
		"/api/surface?surface=analytic&rho=55",
		"/api/shootout?model=nope",
		"/api/shootout?model=nope&rho=55",
		"/api/shootout?rho=abc",
		"/api/shootout?rho=55",
		"/api/shootout?model=CFM&rho=40",
	} {
		g.get(target)
	}
	g.request("POST", "/api/refresh?surface=nope", "")
	g.request("POST", "/api/refresh", "")
	g.request("POST", "/api/refresh?surface=sim", "")
	g.get("/healthz")

	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := 0; i < len(g.lines) || i < len(wantLines); i++ {
		var got, want string
		if i < len(g.lines) {
			got = g.lines[i]
		}
		if i < len(wantLines) {
			want = wantLines[i]
		}
		if got != want {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got, want)
		}
	}
}

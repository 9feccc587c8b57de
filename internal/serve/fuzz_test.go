// Query fuzzing: any query string, with or without a validator, on
// the three data routes of a warm server answers 200, 304, 400 or 404.
// A 200 carries exactly the body and ETag its key answered before
// fuzzing, a 304 only a key that answered 200 then and that key's
// ETag, and a 400 or 404 no ETag. This covers parseRho, the metric and
// surface lookups, the shootout's model and rho filters, and
// If-None-Match parsing, wildcard included.
package serve_test

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/optimize"
	"sensornet/internal/serve"
)

// servedKey is one data key and the body it answered before fuzzing.
type servedKey struct {
	route string
	// param is the key's own query parameters: surface, metric or
	// model, and rho ("" for every density).
	param url.Values
	rho   float64
	body  []byte
}

// matches reports whether query q addresses k: every parameter k names
// has k's value, and the rho parameter matches k's density within the
// tolerance the server matches densities by.
func (k servedKey) matches(q url.Values) bool {
	for name := range k.param {
		if name == "rho" {
			continue
		}
		if q.Get(name) != k.param.Get(name) {
			return false
		}
	}
	if k.param.Get("rho") == "" {
		return q.Get("rho") == ""
	}
	rho, err := strconv.ParseFloat(q.Get("rho"), 64)
	return err == nil && math.Abs(rho-k.rho) < 1e-9
}

// fuzzServer warms a server over both surfaces and the shootout and
// records every data key that answers 200, indexed by the ETag of that
// answer. The analytic surface's reachability target is out of reach,
// so its latency and energy optima are infeasible: they answer 404
// with no ETag, and no validator, * included, may turn one into a 304.
func fuzzServer(f *testing.F) (*serve.Server, map[string]servedKey) {
	dir := f.TempDir()
	pa, ps := testPresets()
	pa.Constraints.Reach = 1.01
	warmCache(f, dir, pa, ps)
	warmShootout(f, dir, ps)
	eng := engine.New(engine.Config{Workers: 4, Cache: engine.NewCache(dir, experiments.CacheSalt), CacheOnly: true})
	srv, err := serve.NewCtx(f.Context(), eng, pa, ps, serve.WithShootoutRhos(shootoutRhos()))
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.Warm(f.Context()); err != nil {
		f.Fatal(err)
	}
	rhoStr := func(rho float64) string { return strconv.FormatFloat(rho, 'g', -1, 64) }
	served := map[string]servedKey{}
	infeasible := 0
	record := func(route string, param url.Values, rho float64) {
		target := route + "?" + param.Encode()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		etag := rec.Header().Get("ETag")
		_, dup := served[etag]
		switch {
		case rec.Code == http.StatusOK && etag != "" && !dup:
			served[etag] = servedKey{route: route, param: param, rho: rho, body: rec.Body.Bytes()}
		case rec.Code == http.StatusNotFound && route == "/api/optimal" && etag == "":
			infeasible++
		default:
			f.Fatalf("GET %s before fuzzing: status %d, ETag %q (seen before: %t)", target, rec.Code, etag, dup)
		}
	}
	for _, surf := range []struct {
		name string
		pre  experiments.Preset
	}{{"analytic", pa}, {"sim", ps}} {
		record("/api/surface", url.Values{"surface": {surf.name}}, 0)
		for _, rho := range surf.pre.Rhos {
			record("/api/surface", url.Values{"surface": {surf.name}, "rho": {rhoStr(rho)}}, rho)
			for _, sel := range optimize.Selectors() {
				record("/api/optimal", url.Values{"surface": {surf.name}, "metric": {sel.Name}, "rho": {rhoStr(rho)}}, rho)
			}
		}
	}
	for _, model := range []string{"", "CFM", "CAM", "SINR"} {
		record("/api/shootout", url.Values{"model": {model}}, 0)
		for _, rho := range shootoutRhos() {
			record("/api/shootout", url.Values{"model": {model}, "rho": {rhoStr(rho)}}, rho)
		}
	}
	if infeasible == 0 {
		f.Fatal("the fixture holds no infeasible optimum")
	}
	return srv, served
}

// FuzzServeQuery's seeds are the committed corpus under
// testdata/fuzz/FuzzServeQuery.
func FuzzServeQuery(f *testing.F) {
	srv, served := fuzzServer(f)
	f.Fuzz(func(t *testing.T, query, ifNoneMatch string) {
		q, _ := url.ParseQuery(query) // as the handlers read it
		for _, route := range []string{"/api/optimal", "/api/surface", "/api/shootout"} {
			req := httptest.NewRequest("GET", route, nil)
			req.URL.RawQuery = query
			if ifNoneMatch != "" {
				req.Header.Set("If-None-Match", ifNoneMatch)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			etag := rec.Header().Get("ETag")
			switch rec.Code {
			case http.StatusBadRequest, http.StatusNotFound:
				if etag != "" {
					t.Fatalf("GET %s?%q: %d carried ETag %s", route, query, rec.Code, etag)
				}
				continue
			case http.StatusOK, http.StatusNotModified:
			default:
				t.Fatalf("GET %s?%q: status %d, body %s", route, query, rec.Code, rec.Body.Bytes())
			}
			k, ok := served[etag]
			if !ok || k.route != route || !k.matches(q) {
				t.Fatalf("GET %s?%q: %d with ETag %s, which no key the query addresses answered with a 200 before fuzzing",
					route, query, rec.Code, etag)
			}
			if rec.Code == http.StatusOK && !bytes.Equal(rec.Body.Bytes(), k.body) {
				t.Fatalf("GET %s?%q: body differs from the one its key answered before fuzzing", route, query)
			}
		}
	})
}

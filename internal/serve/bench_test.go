// Serving-path benchmarks: the latency tier's per-request cost. The
// GET benches run against a prebuilt snapshot over a warmed in-memory
// cache, so they measure exactly what a steady-state production hit
// pays — mux dispatch, ETag lookup, and one pre-encoded []byte write.
// The refresh bench measures a refresh of published tables, which
// reads nothing; the warm bench measures the load path a server pays
// once per table: job sets, cache reads, body encoding and the publish.
package serve_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/serve"
)

var benchSrv struct {
	once  sync.Once
	srv   *serve.Server
	cache *engine.Cache
	err   error
}

// benchShootRhos are the bench server's shootout densities.
var benchShootRhos = []float64{40}

func benchPresets() (experiments.Preset, experiments.Preset) {
	pa := experiments.QuickAnalytic()
	pa.Rhos = []float64{40, 100}
	ps := experiments.QuickSim()
	ps.Rhos = []float64{40}
	ps.Grid = []float64{0.05, 0.2, 0.6, 1}
	ps.Runs = 2
	return pa, ps
}

// newBenchServer builds a cold cache-only server over cache. The
// server outlives the benchmark that builds it, and each b.Context()
// is cancelled when its run ends, so its loads need a base context of
// their own.
func newBenchServer(cache *engine.Cache) (*serve.Server, error) {
	pa, ps := benchPresets()
	eng := engine.New(engine.Config{Workers: 4, Cache: cache, CacheOnly: true})
	return serve.NewCtx(context.Background(), eng, pa, ps, serve.WithShootoutRhos(benchShootRhos))
}

// benchServer builds (once) a warm server over a memory-only cache:
// a computing engine fills the cache, a cache-only engine over the
// same *Cache serves it, and every snapshot is prebuilt.
func benchServer(b *testing.B) *serve.Server {
	b.Helper()
	benchSrv.once.Do(func() {
		pa, ps := benchPresets()
		benchSrv.cache = engine.NewCache("", experiments.CacheSalt)
		fill := engine.New(engine.Config{Workers: 4, Cache: benchSrv.cache})
		jobs := experiments.SurfaceJobs(pa, false, 4)
		jobs = append(jobs, experiments.SurfaceJobs(ps, true, 4)...)
		shootJobs, err := experiments.ShootoutJobs(ps, benchShootRhos)
		if err != nil {
			benchSrv.err = err
			return
		}
		jobs = append(jobs, shootJobs...)
		if _, benchSrv.err = fill.Run(b.Context(), jobs); benchSrv.err != nil {
			return
		}
		if benchSrv.srv, benchSrv.err = newBenchServer(benchSrv.cache); benchSrv.err != nil {
			return
		}
		benchSrv.err = benchSrv.srv.Warm(b.Context())
	})
	if benchSrv.err != nil {
		b.Fatal(benchSrv.err)
	}
	return benchSrv.srv
}

func benchRequest(b *testing.B, method, url string) {
	srv := benchServer(b)
	req := httptest.NewRequest(method, url, nil)
	// One untimed warm-up hit so a -benchtime=1x smoke (b.N == 1)
	// measures the steady state, not first-call lazy initialisation
	// (mux routing caches and the like).
	warm := httptest.NewRecorder()
	srv.ServeHTTP(warm, req)
	if warm.Code != http.StatusOK {
		b.Fatalf("%s %s: status %d", method, url, warm.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: status %d", method, url, rec.Code)
		}
	}
}

// BenchmarkServeOptimal is one steady-state tuning query.
func BenchmarkServeOptimal(b *testing.B) {
	benchRequest(b, "GET", "/api/optimal?surface=analytic&metric=reach&rho=40")
}

// BenchmarkServeSurfaceRow is one steady-state single-density slice.
func BenchmarkServeSurfaceRow(b *testing.B) {
	benchRequest(b, "GET", "/api/surface?surface=analytic&rho=100")
}

// BenchmarkServeSurfaceFull is the full-surface dump — the largest
// pre-encoded body on the fast path.
func BenchmarkServeSurfaceFull(b *testing.B) {
	benchRequest(b, "GET", "/api/surface?surface=analytic")
}

// BenchmarkServeShootoutCell is one steady-state shootout cell query
// (single model, single density) off the pre-encoded snapshot.
func BenchmarkServeShootoutCell(b *testing.B) {
	benchRequest(b, "GET", "/api/shootout?model=SINR&rho=40")
}

// BenchmarkServeRefresh is one POST /api/refresh over published
// tables: each reports ok without a cache read.
func BenchmarkServeRefresh(b *testing.B) {
	benchRequest(b, "POST", "/api/refresh")
}

// BenchmarkServeWarm is a fresh server over the bench server's filled
// in-memory cache, warmed: NewCtx's ETags, then every table's job set,
// cache reads and rendered bodies.
func BenchmarkServeWarm(b *testing.B) {
	benchServer(b)
	cache := benchSrv.cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := newBenchServer(cache)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Warm(b.Context()); err != nil {
			b.Fatal(err)
		}
	}
}

package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"sensornet/internal/engine"
)

// BenchmarkDistRoundTrip is the dist layer's cost per job: a loopback
// coordinator ingesting into a disk cache, and one worker that leases,
// runs and posts b.N trivial jobs. An op is one job's share of a lease
// round trip, its result post and its ingest; the worker sizes its
// leases as it would in a campaign of tiny analytic points. A warm-up
// campaign of 32 jobs on the same worker and connection comes first,
// so the timed one starts with sized leases and no connection set-up;
// building the job sets and the coordinators is not timed either.
func BenchmarkDistRoundTrip(b *testing.B) {
	trivial := func(prefix string, n int) []engine.Job {
		jobs := make([]engine.Job, n)
		for i := range jobs {
			jobs[i] = engine.JobFunc{
				Key:      prefix + strconv.Itoa(i),
				Fn:       func(context.Context) (any, error) { return 1.5, nil },
				EncodeFn: func(v any) ([]byte, error) { return json.Marshal(v) },
			}
		}
		return jobs
	}
	coordinator := func(jobs []engine.Job) *Coordinator {
		c, err := NewCoordinator(Config{Sink: engine.NewCache(b.TempDir(), "bench")}, jobs)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	warm, timed := trivial("warm-", 32), trivial("bench-", b.N)
	var current atomic.Pointer[Coordinator]
	current.Store(coordinator(warm))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()
	w, err := NewWorker(WorkerConfig{ID: "bench", BaseURL: srv.URL,
		Engine: engine.New(engine.Config{Workers: 1}), Jobs: append(warm, timed...)})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	current.Store(coordinator(timed))
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := w.Run(context.Background())
	b.StopTimer()
	if err != nil || rep.Completed != b.N {
		b.Fatalf("worker completed %d of %d jobs: %v", rep.Completed, b.N, err)
	}
}

// Integration tests for the distributed backend: a real coordinator
// behind httptest, real workers executing real analytic surface jobs on
// real engines, including the kill-one-worker failover from the
// acceptance criteria. External test package so only the public API is
// exercised (and so experiments can be imported without ceremony).
package dist_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sensornet/internal/dist"
	"sensornet/internal/engine"
	"sensornet/internal/experiments"
)

// tinyAnalyticPreset is a fast real campaign: 2 densities × 8 grid
// points = 16 analytic point jobs.
func tinyAnalyticPreset() experiments.Preset {
	pre := experiments.QuickAnalytic()
	pre.Rhos = []float64{40, 100}
	pre.Grid = []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1}
	return pre
}

// readRecords returns key → envelope for every record in a cache
// directory, which must hold only segments. A segment is a run of
// two-line records: a "<hex key> <length>" header, then the
// compact-JSON envelope. Each key must be stored once.
func readRecords(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".seg" {
			t.Fatalf("%s: %s is not a segment", dir, e.Name())
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
		if len(lines)%2 != 0 {
			t.Fatalf("%s: a record is cut short", e.Name())
		}
		for i := 0; i < len(lines); i += 2 {
			key, n, _ := strings.Cut(lines[i], " ")
			if n != strconv.Itoa(len(lines[i+1])) {
				t.Fatalf("%s: record %s declares %s bytes, holds %d", e.Name(), key, n, len(lines[i+1]))
			}
			if _, dup := out[key]; dup {
				t.Fatalf("%s: key %s stored twice", dir, key)
			}
			out[key] = lines[i+1]
		}
	}
	return out
}

// sameRecords fails unless two cache directories store the same
// envelope bytes under the same keys.
func sameRecords(t *testing.T, localDir, distDir string) {
	t.Helper()
	local, dist := readRecords(t, localDir), readRecords(t, distDir)
	if len(local) == 0 || len(local) != len(dist) {
		t.Fatalf("caches differ in size: local %d records, dist %d", len(local), len(dist))
	}
	for key, env := range local {
		if dist[key] != env {
			t.Fatalf("record %s differs:\n%s\nvs\n%s", key, env, dist[key])
		}
	}
}

// runDistributed drives a full campaign through a coordinator and the
// given worker configs, returning the coordinator (for stats) and each
// worker's (report, error) in order.
func runDistributed(t *testing.T, cache *engine.Cache, jobs []engine.Job, workerCfgs []dist.WorkerConfig) (*dist.Coordinator, []*dist.WorkerReport, []error) {
	t.Helper()
	coord, err := dist.NewCoordinator(dist.Config{
		Sink:     cache,
		Shards:   len(workerCfgs),
		LeaseTTL: 300 * time.Millisecond,
		Logf:     t.Logf,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	reports := make([]*dist.WorkerReport, len(workerCfgs))
	errs := make([]error, len(workerCfgs))
	var wg sync.WaitGroup
	for i, cfg := range workerCfgs {
		cfg.BaseURL = srv.URL
		w, err := dist.NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, w *dist.Worker) {
			defer wg.Done()
			reports[i], errs[i] = w.Run(ctx)
		}(i, w)
	}
	wg.Wait()
	return coord, reports, errs
}

// TestDistributedMergesByteIdentical is the acceptance anchor: a
// 2-worker distributed campaign — with one worker killed mid-run by
// fault injection — produces a cache directory byte-identical to a
// plain local run, and the merged surface is equal.
func TestDistributedMergesByteIdentical(t *testing.T) {
	pre := tinyAnalyticPreset()
	jobs := experiments.SurfaceJobs(pre, false, 1)
	if len(jobs) != 16 {
		t.Fatalf("job set size = %d, want 16", len(jobs))
	}

	// Reference: an unsharded local run into its own cache dir.
	localDir := t.TempDir()
	localEng := engine.New(engine.Config{
		Workers: 4, Cache: engine.NewCache(localDir, experiments.CacheSalt)})
	localSurf, err := experiments.AnalyticSurfaceCtx(context.Background(), localEng, pre)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed: coordinator over a fresh cache dir, two workers; the
	// first dies after one completed job while holding a lease.
	distDir := t.TempDir()
	workerEngine := func() *engine.Engine { return engine.New(engine.Config{Workers: 2}) }
	coord, reports, errs := runDistributed(t,
		engine.NewCache(distDir, experiments.CacheSalt), jobs,
		[]dist.WorkerConfig{
			{ID: "w-dying", Engine: workerEngine(), Jobs: jobs, FailAfter: 1, Poll: 20 * time.Millisecond},
			{ID: "w-survivor", Engine: workerEngine(), Jobs: jobs, Poll: 20 * time.Millisecond},
		})

	if !errors.Is(errs[0], dist.ErrFailInjected) {
		t.Fatalf("dying worker error = %v, want ErrFailInjected", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("surviving worker error = %v", errs[1])
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("coordinator not done after workers drained")
	}
	s := coord.Stats()
	if s.Completed != len(jobs) || s.Failed != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Expired < 1 {
		t.Fatalf("Expired = %d: the killed worker's lease never failed over", s.Expired)
	}
	if reports[1].Completed < len(jobs)-reports[0].Completed {
		t.Fatalf("survivor completed %d of %d", reports[1].Completed, len(jobs))
	}

	// Byte identity at the cache layer: the same envelope bytes under
	// every key, all in the coordinator's one segment.
	sameRecords(t, localDir, distDir)
	if entries, err := os.ReadDir(distDir); err != nil || len(entries) != 1 {
		t.Fatalf("distributed cache holds %d files, want one segment (err %v)", len(entries), err)
	}

	// Merge identity: a cache-only engine over the distributed cache
	// assembles the same surface the local run computed.
	mergeEng := engine.New(engine.Config{
		Workers: 4, CacheOnly: true,
		Cache: engine.NewCache(distDir, experiments.CacheSalt)})
	distSurf, err := experiments.AnalyticSurfaceCtx(context.Background(), mergeEng, pre)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(localSurf, distSurf) {
		t.Fatal("merged surface differs from the local run's")
	}
}

// TestDistributedResume: a second coordinator over the same cache dir
// finds every job cached and is done before any worker lifts a finger.
func TestDistributedResume(t *testing.T) {
	pre := tinyAnalyticPreset()
	jobs := experiments.SurfaceJobs(pre, false, 1)
	dir := t.TempDir()

	cache := engine.NewCache(dir, experiments.CacheSalt)
	_, reports, errs := runDistributed(t, cache, jobs,
		[]dist.WorkerConfig{{ID: "w1", Engine: engine.New(engine.Config{Workers: 2}), Jobs: jobs}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if reports[0].Completed != len(jobs) {
		t.Fatalf("single worker completed %d of %d", reports[0].Completed, len(jobs))
	}

	resumed, err := dist.NewCoordinator(dist.Config{
		Sink: engine.NewCache(dir, experiments.CacheSalt), Shards: 2,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-resumed.Done():
	default:
		t.Fatal("resumed coordinator over a full cache is not done")
	}
	if s := resumed.Stats(); s.CachedAtStart != len(jobs) {
		t.Fatalf("CachedAtStart = %d, want %d", s.CachedAtStart, len(jobs))
	}
}

// TestWorkerUnknownJob: a worker leased a fingerprint outside its job
// set reports the mismatch as a job failure rather than wedging.
func TestWorkerUnknownJob(t *testing.T) {
	pre := tinyAnalyticPreset()
	jobs := experiments.SurfaceJobs(pre, false, 1)

	// The worker only knows half the campaign.
	coord, err := dist.NewCoordinator(dist.Config{
		Sink:           engine.NewCache(t.TempDir(), experiments.CacheSalt),
		MaxJobFailures: 1,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	w, err := dist.NewWorker(dist.WorkerConfig{
		ID: "w1", BaseURL: srv.URL,
		Engine: engine.New(engine.Config{Workers: 2}),
		Jobs:   jobs[:len(jobs)/2],
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("no failures reported for unknown jobs")
	}
	if got := len(coord.FailedJobs()); got != len(jobs)-len(jobs)/2 {
		t.Fatalf("FailedJobs = %d, want %d", got, len(jobs)-len(jobs)/2)
	}
}

func TestNewWorkerValidation(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	jobs := []engine.Job{engine.JobFunc{Key: "k"}}
	cases := []dist.WorkerConfig{
		{BaseURL: "http://x", Engine: eng, Jobs: jobs}, // no ID
		{ID: "w", Engine: eng, Jobs: jobs},             // no URL
		{ID: "w", BaseURL: "http://x", Jobs: jobs},     // no engine
		{ID: "w", BaseURL: "http://x", Engine: eng},    // no jobs
	}
	for i, cfg := range cases {
		if _, err := dist.NewWorker(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

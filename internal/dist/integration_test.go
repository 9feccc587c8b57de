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

// readTree returns relative path → content for every file under dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
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

	// Byte identity at the cache layer: same file names, same bytes.
	localTree, distTree := readTree(t, localDir), readTree(t, distDir)
	if len(localTree) == 0 || len(localTree) != len(distTree) {
		t.Fatalf("cache trees differ in size: local %d, dist %d", len(localTree), len(distTree))
	}
	for name, lb := range localTree {
		db, ok := distTree[name]
		if !ok {
			t.Fatalf("distributed cache missing entry %s", name)
		}
		if string(lb) != string(db) {
			t.Fatalf("cache entry %s differs:\n%s\nvs\n%s", name, lb, db)
		}
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

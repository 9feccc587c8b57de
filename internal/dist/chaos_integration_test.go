// The chaos acceptance test: a real coordinator and two real workers
// separated by a seed-deterministic hostile transport that drops,
// delays, duplicates, truncates, and bit-corrupts traffic — plus one
// worker killed mid-run — must still converge to a cache directory
// byte-identical to a plain local run, with every payload ingested
// exactly once.
package dist_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"sensornet/internal/chaos"
	"sensornet/internal/dist"
	"sensornet/internal/engine"
	"sensornet/internal/experiments"
)

func TestDistributedChaosByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign takes a few seconds")
	}
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

	// Distributed: the coordinator sits behind a chaos reverse proxy
	// (server-side hostility), and each worker's own client is wrapped
	// in an independently seeded chaos transport (client-side
	// hostility). Both fault schedules are pure functions of their
	// seeds, so a failing run replays exactly.
	distDir := t.TempDir()
	distCache := engine.NewCache(distDir, experiments.CacheSalt)
	coord, err := dist.NewCoordinator(dist.Config{
		Sink:     distCache,
		Shards:   2,
		LeaseTTL: 500 * time.Millisecond,
		Logf:     t.Logf,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	target, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(&httputil.ReverseProxy{
		Rewrite:   func(pr *httputil.ProxyRequest) { pr.SetURL(target) },
		Transport: chaos.New(nil, chaos.Mild(), 101),
		ErrorLog:  nil, // injected faults surface as 502s the workers retry
	})
	defer proxy.Close()

	// Workers get in-memory engine caches so a re-leased job they
	// already ran is answered from cache, not recomputed.
	workerCfg := func(id string, seed int64, failAfter int) dist.WorkerConfig {
		return dist.WorkerConfig{
			ID:      id,
			BaseURL: proxy.URL,
			Engine: engine.New(engine.Config{
				Workers: 2, Cache: engine.NewCache("", experiments.CacheSalt)}),
			Jobs: jobs,
			Client: &http.Client{
				Timeout:   30 * time.Second,
				Transport: chaos.Wrap(nil, chaos.Hostile(), seed),
			},
			Poll:      20 * time.Millisecond,
			FailAfter: failAfter,
			Logf:      t.Logf,
		}
	}
	cfgs := []dist.WorkerConfig{
		workerCfg("w-dying", 202, 1), // killed holding a lease after 1 job
		workerCfg("w-survivor", 303, 0),
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	reports := make([]*dist.WorkerReport, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
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

	// Exactly-once end to end: every job ingested once at the protocol
	// layer, and nothing slipped past it into the cache twice.
	s := coord.Stats()
	if s.Completed != len(jobs) || s.Failed != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Ingested != len(jobs) {
		t.Fatalf("Ingested = %d, want exactly %d", s.Ingested, len(jobs))
	}
	if dupes := distCache.Stats().IngestDupes; dupes != 0 {
		t.Fatalf("cache absorbed %d duplicate ingests; the protocol layer must catch them all", dupes)
	}
	t.Logf("chaos campaign: %d completed, %d duplicates absorbed, %d leases expired, %d steals",
		s.Completed, s.Duplicates, s.Expired, s.Steals)

	// Byte identity at the cache layer: the same envelope bytes under
	// every key.
	sameRecords(t, localDir, distDir)

	// Merge identity: a cache-only engine over the chaos-built cache
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

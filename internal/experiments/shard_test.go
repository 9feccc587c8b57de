// Shard-layer tests: deterministic job→shard assignment over the real
// surface job sets, multi-process merge byte-identity through the
// shared cache, missing-shard detection, and kill-one-shard→resume.
// External test package, like engine_integration_test.go.
package experiments_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
)

// shardedEngine builds one shard process's engine over the shared
// cache directory.
func shardedEngine(dir string, idx, total int) *engine.Engine {
	return engine.New(engine.Config{
		Workers: 2,
		Cache:   engine.NewCache(dir, experiments.CacheSalt),
		Shard:   engine.ShardSpec{Index: idx, Total: total},
	})
}

// mergeEngine builds the merge/serve-side engine: unsharded and
// cache-only, so assembling a surface can never recompute shard work.
func mergeEngine(dir string) *engine.Engine {
	return engine.New(engine.Config{
		Workers:   2,
		Cache:     engine.NewCache(dir, experiments.CacheSalt),
		CacheOnly: true,
	})
}

// renderAnalyticFig assembles the analytic surface on eng and renders
// its Fig. 4, the byte-comparison artifact of the merge tests.
func renderAnalyticFig(ctx context.Context, eng *engine.Engine, pre experiments.Preset) (string, error) {
	surf, err := experiments.AnalyticSurfaceCtx(ctx, eng, pre)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	if err := experiments.Fig4(surf).Render(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

func renderSimFig(ctx context.Context, eng *engine.Engine, pre experiments.Preset) (string, error) {
	surf, err := experiments.SimSurfaceCtx(ctx, eng, pre)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	if err := experiments.Fig8(surf).Render(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// TestSurfaceJobsShardAssignment: the real surface job sets partition
// deterministically — every job is owned by exactly one shard, and the
// assignment is a pure function of the fingerprint.
func TestSurfaceJobsShardAssignment(t *testing.T) {
	pa := experiments.QuickAnalytic()
	pa.Rhos = []float64{40, 100}
	for _, tc := range []struct {
		name string
		jobs []engine.Job
	}{
		{"analytic", experiments.SurfaceJobs(pa, false, 1)},
		{"sim", experiments.SurfaceJobs(tinySimPreset(), true, 1)},
	} {
		const total = 3
		for _, j := range tc.jobs {
			fp := j.Fingerprint()
			if fp == "" {
				t.Fatalf("%s job %q is uncacheable: surface jobs must shard", tc.name, j.Name())
			}
			s := engine.ShardOf(fp, total)
			owners := 0
			for idx := 0; idx < total; idx++ {
				spec := engine.ShardSpec{Index: idx, Total: total}
				if spec.Owns(fp) {
					owners++
					if idx != s {
						t.Fatalf("%s job %q: shard %d owns it but ShardOf says %d", tc.name, j.Name(), idx, s)
					}
				}
			}
			if owners != 1 {
				t.Fatalf("%s job %q owned by %d shards, want exactly 1", tc.name, j.Name(), owners)
			}
			if s != engine.ShardOf(fp, total) {
				t.Fatalf("%s job %q: assignment not deterministic", tc.name, j.Name())
			}
		}
	}
}

// TestTwoShardMergeByteIdentical is the tentpole acceptance property:
// two shard processes over a shared cache directory, followed by an
// unsharded cache-only merge, render the exact bytes of a single
// uncached run — and the merge recomputes nothing.
func TestTwoShardMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep in -short mode")
	}
	pre := tinySimPreset()

	// Reference: one process, no cache involved anywhere.
	want, err := renderSimFig(context.Background(), engine.New(engine.Config{Workers: 2}), pre)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	jobs := experiments.SurfaceJobs(pre, true, 2)
	owned := 0
	for idx := 0; idx < 2; idx++ {
		rep, err := experiments.RunShard(context.Background(), shardedEngine(dir, idx, 2), jobs)
		if err != nil {
			t.Fatalf("shard %d: %v", idx, err)
		}
		if rep.Owned+rep.Skipped != rep.Jobs {
			t.Fatalf("shard %d report does not partition the job set: %s", idx, rep)
		}
		owned += rep.Owned
	}
	if owned != len(jobs) {
		t.Fatalf("shards owned %d jobs in total, want all %d", owned, len(jobs))
	}

	cache := engine.NewCache(dir, experiments.CacheSalt)
	merged := engine.New(engine.Config{Workers: 2, Cache: cache, CacheOnly: true})
	got, err := renderSimFig(context.Background(), merged, pre)
	if err != nil {
		t.Fatalf("merge failed: %v", err)
	}
	if got != want {
		t.Fatalf("merged figure differs from single-process run:\n%s\nvs\n%s", got, want)
	}
	if s := merged.Stats(); s.CacheHits != len(jobs) {
		t.Fatalf("merge served %d rows from cache, want all %d", s.CacheHits, len(jobs))
	}
	if cs := cache.Stats(); cs.Misses != 0 || cs.Stores != 0 {
		t.Fatalf("merge recomputed: cache stats %+v, want 0 misses and 0 stores", cs)
	}
}

// TestMergeReportsMissingShards: when only one shard has run, the merge
// fails with a *MissingError whose MissingShards names exactly the
// shards that never published.
func TestMergeReportsMissingShards(t *testing.T) {
	pre := experiments.QuickAnalytic()
	pre.Rhos = []float64{40, 100}
	jobs := experiments.SurfaceJobs(pre, false, 1)

	// Run only the shard owning the first job; derive the expected
	// missing shards from the same assignment the engine uses.
	const total = 2
	ran := engine.ShardOf(jobs[0].Fingerprint(), total)
	wantMissing := map[int]bool{}
	for _, j := range jobs {
		if s := engine.ShardOf(j.Fingerprint(), total); s != ran {
			wantMissing[s] = true
		}
	}
	if len(wantMissing) == 0 {
		t.Fatalf("degenerate fixture: shard %d owns all %d jobs", ran, len(jobs))
	}

	dir := t.TempDir()
	if _, err := experiments.RunShard(context.Background(), shardedEngine(dir, ran, total), jobs); err != nil {
		t.Fatal(err)
	}

	_, err := renderAnalyticFig(context.Background(), mergeEngine(dir), pre)
	var missing *engine.MissingError
	if !errors.As(err, &missing) {
		t.Fatalf("merge err = %v, want *engine.MissingError", err)
	}
	got := missing.MissingShards(total)
	if len(got) != len(wantMissing) {
		t.Fatalf("MissingShards(%d) = %v, want the %d unrun shard(s)", total, got, len(wantMissing))
	}
	for _, s := range got {
		if !wantMissing[s] {
			t.Fatalf("MissingShards(%d) = %v names shard %d, which published everything", total, got, s)
		}
		if s == ran {
			t.Fatalf("MissingShards(%d) = %v blames shard %d, which ran", total, got, ran)
		}
	}
}

// TestShardKillResumeByteIdentical: a shard process killed mid-pass
// leaves its completed jobs in the shared cache; re-running that shard
// resumes from them, and after the remaining shard runs, the merge is
// byte-identical to an uninterrupted single-process run.
func TestShardKillResumeByteIdentical(t *testing.T) {
	pre := experiments.QuickAnalytic()
	pre.Rhos = []float64{40, 100}
	jobs := experiments.SurfaceJobs(pre, false, 1)
	ownedBy0 := 0
	for _, j := range jobs {
		if engine.ShardOf(j.Fingerprint(), 2) == 0 {
			ownedBy0++
		}
	}

	want, err := renderAnalyticFig(context.Background(), engine.New(engine.Config{Workers: 1}), pre)
	if err != nil {
		t.Fatal(err)
	}

	// Kill shard 0 after its first completed job (skips never emit
	// EventDone, so the count below sees real computations only). Put
	// runs before the next job starts with workers=1, so that job is on
	// disk when the cancel lands.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var done int
	killed := engine.New(engine.Config{
		Workers: 1,
		Cache:   engine.NewCache(dir, experiments.CacheSalt),
		Shard:   engine.ShardSpec{Index: 0, Total: 2},
		OnEvent: func(ev engine.Event) {
			if ev.Kind == engine.EventDone {
				if done++; done == 1 {
					cancel()
				}
			}
		},
	})
	if _, err := experiments.RunShard(ctx, killed, jobs); ownedBy0 > 1 && !errors.Is(err, context.Canceled) {
		t.Fatalf("killed shard: err = %v, want context.Canceled", err)
	}

	// Resume shard 0 with a fresh engine over the same cache, then run
	// shard 1 as its own process would.
	rep0, err := experiments.RunShard(context.Background(), shardedEngine(dir, 0, 2), jobs)
	if err != nil {
		t.Fatalf("resumed shard 0: %v", err)
	}
	if rep0.Owned != ownedBy0 || rep0.CacheHits < 1 {
		t.Fatalf("resumed shard 0 report %s: want %d owned with the killed pass's job as a cache hit", rep0, ownedBy0)
	}
	if _, err := experiments.RunShard(context.Background(), shardedEngine(dir, 1, 2), jobs); err != nil {
		t.Fatalf("shard 1: %v", err)
	}

	merged := mergeEngine(dir)
	got, err := renderAnalyticFig(context.Background(), merged, pre)
	if err != nil {
		t.Fatalf("merge failed: %v", err)
	}
	if got != want {
		t.Fatalf("kill-resume merge differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if s := merged.Stats(); s.CacheHits != len(jobs) {
		t.Fatalf("merge served %d jobs from cache, want all %d", s.CacheHits, len(jobs))
	}
}

// TestShardedEngineRefusesSurfaceAssembly: surface (and degradation)
// assembly over a sharded engine is impossible by construction and must
// fail loudly instead of producing a partial figure.
func TestShardedEngineRefusesSurfaceAssembly(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, Shard: engine.ShardSpec{Index: 0, Total: 2}})
	ctx := context.Background()
	pre := experiments.QuickAnalytic()
	if _, err := experiments.AnalyticSurfaceCtx(ctx, eng, pre); err == nil || !strings.Contains(err.Error(), "sharded engine") {
		t.Errorf("AnalyticSurfaceCtx on a sharded engine: err = %v, want sharded-engine refusal", err)
	}
	if _, err := experiments.SimSurfaceCtx(ctx, eng, tinySimPreset()); err == nil || !strings.Contains(err.Error(), "sharded engine") {
		t.Errorf("SimSurfaceCtx on a sharded engine: err = %v, want sharded-engine refusal", err)
	}
	spec := experiments.FigureSpec{Sim: tinySimPreset(), DegRho: 20}
	if _, err := experiments.RunFigures(ctx, eng, spec, nil, "degradation"); err == nil || !strings.Contains(err.Error(), "sharded engine") {
		t.Errorf("degradation on a sharded engine: err = %v, want sharded-engine refusal", err)
	}
}

// TestFigureTableShardMerge: every figure, "all" included, survives the
// shard/merge split. Two shard processes fill one cache from
// FigureJobs, and a cache-only engine then renders the figure
// byte-identically to a direct run, never missing a job and running
// none.
func TestFigureTableShardMerge(t *testing.T) {
	pa := experiments.QuickAnalytic()
	pa.Rhos = []float64{20, 100}
	pa.Grid = []float64{0.1, 0.3, 0.6, 1}
	ps := experiments.QuickSim()
	ps.Rhos = []float64{30}
	ps.Grid = []float64{0.2, 0.6, 1}
	ps.Runs = 2
	spec := experiments.FigureSpec{Analytic: pa, Sim: ps, DegRho: 40,
		CrashRates: []float64{0, 0.3}, LossRates: []float64{0, 0.2},
		ShootRhos: []float64{30}}
	ctx := context.Background()
	sharded := 0
	for _, id := range experiments.FigureIDs() {
		jobs, err := experiments.FigureJobs(id, spec)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(jobs) == 0 {
			t.Fatalf("%s: empty job set", id)
		}
		sharded++
		var direct, merged bytes.Buffer
		if _, err := experiments.RunFigures(ctx, engine.New(engine.Config{Workers: 2}), spec, &direct, id); err != nil {
			t.Fatalf("%s direct: %v", id, err)
		}
		dir := t.TempDir()
		for i := 0; i < 2; i++ {
			if _, err := experiments.RunShard(ctx, shardedEngine(dir, i, 2), jobs); err != nil {
				t.Fatalf("%s shard %d: %v", id, i, err)
			}
		}
		merge := mergeEngine(dir)
		if _, err := experiments.RunFigures(ctx, merge, spec, &merged, id); err != nil {
			t.Fatalf("%s merge: %v", id, err)
		}
		if direct.String() != merged.String() {
			t.Errorf("%s: merged render differs from the direct run", id)
		}
		if s := merge.Stats(); s.Ran != 0 {
			t.Errorf("%s: merge engine ran %d jobs, want 0 (stats %+v)", id, s.Ran, s)
		}
	}
	// Every figure table row, and "all".
	if sharded != 25 {
		t.Errorf("%d figures have a job set, want 25", sharded)
	}
}

// TestFig12SimMergeNeedsFloodingCells: fig12sim's flooding runs are
// cells of its job set, so a cache-only engine holding only fig8's
// results (the simulated surface) refuses to render it, naming one
// flooding cell per density, instead of simulating them itself.
func TestFig12SimMergeNeedsFloodingCells(t *testing.T) {
	ctx := context.Background()
	spec := experiments.FigureSpec{Analytic: experiments.QuickAnalytic(), Sim: tinySimPreset()}
	jobs, err := experiments.FigureJobs("fig8", spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fill := engine.New(engine.Config{Workers: 2, Cache: engine.NewCache(dir, experiments.CacheSalt)})
	if _, err := fill.Run(ctx, jobs); err != nil {
		t.Fatal(err)
	}

	_, err = experiments.RunFigures(ctx, mergeEngine(dir), spec, io.Discard, "fig12sim")
	var missing *engine.MissingError
	if !errors.As(err, &missing) {
		t.Fatalf("fig12sim merge over fig8's results: err = %v, want *engine.MissingError", err)
	}
	var names []string
	for _, j := range missing.Jobs {
		names = append(names, j.Name)
	}
	var want []string
	for _, rho := range spec.Sim.Rhos {
		want = append(want, fmt.Sprintf("flood(rho=%g)", rho))
	}
	if !slices.Equal(names, want) {
		t.Errorf("missing jobs %v, want the flooding cells %v", names, want)
	}
}

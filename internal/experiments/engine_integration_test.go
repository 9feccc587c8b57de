// Integration tests for the experiments↔engine rewiring: determinism
// across worker counts, campaign cancellation, and campaign-level
// caching. External test package so that internal/export (which
// imports experiments) can verify CSV byte-identity without an import
// cycle.
package experiments_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/export"
)

func tinySimPreset() experiments.Preset {
	pre := experiments.QuickSim()
	pre.Rhos = []float64{30, 80}
	pre.Grid = []float64{0.05, 0.2, 0.6, 1}
	pre.Runs = 3
	return pre
}

// campaignFigures is the simulated campaign these tests render: the
// paper's Figs. 4-12 plus fig12sim, in emission order.
var campaignFigures = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12sim", "fig12"}

// campaignSpec is the small analytic and simulated presets the
// campaign renders at.
func campaignSpec() experiments.FigureSpec {
	pa := experiments.QuickAnalytic()
	pa.Rhos = []float64{40, 100}
	return experiments.FigureSpec{Analytic: pa, Sim: tinySimPreset()}
}

// campaignArtifacts runs the full simulated campaign on an engine with
// the given worker count and returns the rendered report plus every
// figure's CSV bytes.
func campaignArtifacts(t *testing.T, workers int) (string, map[string][]byte) {
	t.Helper()
	spec := campaignSpec()
	var report bytes.Buffer
	figs, err := experiments.RunFigures(context.Background(),
		engine.New(engine.Config{Workers: workers}), spec, &report, campaignFigures...)
	if err != nil {
		t.Fatal(err)
	}
	csvs := make(map[string][]byte, len(figs))
	for _, f := range figs {
		var b bytes.Buffer
		if err := export.SeriesCSV(&b, f, spec.Analytic.Rhos); err != nil {
			t.Fatal(err)
		}
		csvs[f.ID] = b.Bytes()
	}
	return report.String(), csvs
}

// TestCampaignByteIdenticalAcrossWorkerCounts is the acceptance
// property: with a fixed seed the campaign's figure CSVs (and the whole
// rendered report) are byte-identical between 1 worker and 8 workers.
func TestCampaignByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated campaign in -short mode")
	}
	report1, csv1 := campaignArtifacts(t, 1)
	report8, csv8 := campaignArtifacts(t, 8)
	if report1 != report8 {
		t.Fatal("campaign reports differ between 1 and 8 workers")
	}
	if len(csv1) != len(csv8) || len(csv1) == 0 {
		t.Fatalf("figure sets differ: %d vs %d", len(csv1), len(csv8))
	}
	for id, b1 := range csv1 {
		if !bytes.Equal(b1, csv8[id]) {
			t.Fatalf("figure %s CSV differs between 1 and 8 workers:\n%s\nvs\n%s",
				id, b1, csv8[id])
		}
	}
}

// TestCampaignOrderStable asserts the canonical emission order the CSV
// comparison implicitly depends on.
func TestCampaignOrderStable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated campaign in -short mode")
	}
	figs, err := experiments.RunFigures(context.Background(), engine.New(engine.Config{Workers: 8}),
		campaignSpec(), nil, campaignFigures...)
	if err != nil {
		t.Fatal(err)
	}
	want := campaignFigures
	if len(figs) != len(want) {
		t.Fatalf("got %d figures, want %d", len(figs), len(want))
	}
	for i, f := range figs {
		if f.ID != want[i] {
			t.Fatalf("figure %d is %s, want %s", i, f.ID, want[i])
		}
	}
}

// TestCampaignCancellationMidRun cancels a simulated campaign shortly
// after it starts: RunContext must return promptly with an error
// wrapping context.Canceled.
func TestCampaignCancellationMidRun(t *testing.T) {
	pre := experiments.PaperSim() // big enough to still be running
	pre.Rhos = []float64{60, 100, 140}
	spec := experiments.FigureSpec{Analytic: experiments.QuickAnalytic(), Sim: pre}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := experiments.RunFigures(ctx, engine.New(engine.Config{Workers: 4}), spec, io.Discard,
		campaignFigures...)
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestCampaignCacheReusesSurfaces runs the same campaign twice on one
// cached engine and asserts the second pass is served from the cache
// while producing an identical report.
func TestCampaignCacheReusesSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated campaign in -short mode")
	}
	cache := engine.NewCache(t.TempDir(), experiments.CacheSalt)
	eng := engine.New(engine.Config{Workers: 4, Cache: cache})

	var first, second bytes.Buffer
	for _, w := range []*bytes.Buffer{&first, &second} {
		if _, err := experiments.RunFigures(context.Background(), eng, campaignSpec(), w,
			campaignFigures...); err != nil {
			t.Fatal(err)
		}
	}
	if first.String() != second.String() {
		t.Fatal("cached rerun produced a different report")
	}
	// Every surface row of the second pass (2 analytic + 2 sim) must be
	// a cache hit.
	if s := eng.Stats(); s.CacheHits < 4 {
		t.Fatalf("cache hits = %d, want >= 4 (stats %+v)", s.CacheHits, s)
	}
	if cs := cache.Stats(); cs.Stores < 4 {
		t.Fatalf("cache stores = %d, want >= 4", cs.Stores)
	}
}

// TestDegradationKillResumeByteIdentical is the crash-safety
// acceptance property: a degradation study context-cancelled halfway
// leaves its completed cells on disk; re-running with the same seed
// and cache directory completes from those cached rows and renders
// byte-identically to a never-interrupted run.
func TestDegradationKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated study in -short mode")
	}
	pre := experiments.QuickSim()
	pre.Runs = 3
	crash := []float64{0, 0.3}
	loss := []float64{0, 0.3}
	spec := experiments.FigureSpec{Sim: pre, DegRho: 20, CrashRates: crash, LossRates: loss}
	render := func(eng *engine.Engine, ctx context.Context) (string, error) {
		var b bytes.Buffer
		if _, err := experiments.RunFigures(ctx, eng, spec, &b, "degradation"); err != nil {
			return "", err
		}
		return b.String(), nil
	}

	// Reference: an uninterrupted run with no disk cache at all.
	want, err := render(engine.New(engine.Config{Workers: 1}), context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Kill the study after its second completed cell. Put runs before
	// the next job starts (workers=1), so both cells are on disk.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var done int
	killed := engine.New(engine.Config{
		Workers: 1,
		Cache:   engine.NewCache(dir, experiments.CacheSalt),
		OnEvent: func(ev engine.Event) {
			if ev.Kind == engine.EventDone {
				if done++; done == 2 {
					cancel()
				}
			}
		},
	})
	if _, err := render(killed, ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: err = %v, want context.Canceled", err)
	}

	// Resume: fresh engine, same cache dir, background context.
	resumed := engine.New(engine.Config{Workers: 1,
		Cache: engine.NewCache(dir, experiments.CacheSalt)})
	got, err := render(resumed, context.Background())
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if got != want {
		t.Fatalf("resumed study differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if s := resumed.Stats(); s.CacheHits < 2 {
		t.Fatalf("resume served %d cells from cache, want >= 2 (stats %+v)", s.CacheHits, s)
	}
}

// TestDiskCacheSurvivesEngineRestart exercises the JSON disk layer end
// to end: a fresh engine over the same cache directory must reuse the
// stored surface rows (including NaN round-tripping) and reproduce the
// report byte for byte.
func TestDiskCacheSurvivesEngineRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated campaign in -short mode")
	}
	dir := t.TempDir()
	run := func(w io.Writer) *engine.Engine {
		eng := engine.New(engine.Config{Workers: 4,
			Cache: engine.NewCache(dir, experiments.CacheSalt)})
		if _, err := experiments.RunFigures(context.Background(), eng, campaignSpec(), w,
			campaignFigures...); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	var first, second bytes.Buffer
	run(&first)
	restarted := run(&second)
	if first.String() != second.String() {
		t.Fatal("disk-cached rerun produced a different report")
	}
	if s := restarted.Stats(); s.CacheHits < 4 {
		t.Fatalf("restarted engine cache hits = %d, want >= 4", s.CacheHits)
	}
	// The quick analytic surface contains infeasible (NaN) latency
	// cells at p=1 densities; reaching here means they round-tripped.
	if !strings.Contains(first.String(), "fig5") {
		t.Fatal("report missing fig5")
	}
}

// TestEngineSeesOnlyJobSets: ShootoutCtx and a single-figure render
// report exactly their job set's jobs to the caller's engine, one start
// and one done each. Figure draws run off that engine, so an OnEvent
// observer (the repository benchmark counts every job it sees as a
// cell) never sees them.
func TestEngineSeesOnlyJobSets(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated campaign in -short mode")
	}
	ctx := context.Background()
	spec := campaignSpec()
	spec.ShootRhos = []float64{30}
	render := map[string]func(*engine.Engine) error{
		"shootout": func(eng *engine.Engine) error {
			_, err := experiments.ShootoutCtx(ctx, eng, spec.Sim, spec.ShootRhos)
			return err
		},
		"fig12sim": func(eng *engine.Engine) error {
			_, err := experiments.RunFigures(ctx, eng, spec, io.Discard, "fig12sim")
			return err
		},
	}
	for id, run := range render {
		jobs, err := experiments.FigureJobs(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{}
		for _, j := range jobs {
			want[j.Name()+" start"]++
			want[j.Name()+" done"]++
		}
		var mu sync.Mutex
		got := map[string]int{}
		eng := engine.New(engine.Config{Workers: 2, OnEvent: func(ev engine.Event) {
			mu.Lock()
			got[ev.Job+" "+ev.Kind.String()]++
			mu.Unlock()
		}})
		if err := run(eng); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: engine events %v, want its job set's %v", id, got, want)
		}
		if s := eng.Stats(); s.Jobs != len(jobs) || s.Batches != 1 {
			t.Errorf("%s: engine ran %d jobs in %d batches, want its %d jobs in 1", id, s.Jobs, s.Batches, len(jobs))
		}
	}
}

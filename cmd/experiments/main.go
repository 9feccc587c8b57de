// Command experiments regenerates the paper's evaluation: every figure
// of §4.2 (analytic) and §5 (simulated), the Fig. 12 success-rate
// correlation, the CFM baseline, and the carrier-sensing ablation.
//
// Examples:
//
//	experiments -figure all -quick          # fast coarse-grid campaign
//	experiments -figure fig4                # one figure, paper grids
//	experiments -figure all -out report.txt # full campaign to a file
//	experiments -figure all -workers=8      # saturate 8 cores
//	experiments -figure all -cache-dir .cache/experiments  # reuse results
//	experiments -figure degradation -quick -deg-rho 40 \
//	    -crash-rates 0,0.2,0.4 -loss-rates 0,0.3    # fault tolerance study
//
// Sharded sweeps split a figure's cacheable job set across processes
// (or hosts sharing the cache directory) and merge from the cache:
//
//	experiments -figure fig8 -cache-dir D -shard 0/2   # process 1
//	experiments -figure fig8 -cache-dir D -shard 1/2   # process 2
//	experiments -figure fig8 -cache-dir D -merge 2     # assemble, never recompute
//	experiments -cache-dir D -serve :8080              # tuning queries from cache
//
// Distributed sweeps need no shared filesystem: a coordinator leases
// jobs over HTTP, workers on any host execute them and post results
// back, and the coordinator's cache directory ends up byte-identical
// to a local run — a killed worker's leases fail over to the rest:
//
//	experiments -figure fig8 -cache-dir D -coordinator :9090   # lease server
//	experiments -figure fig8 -worker http://host:9090          # per worker host
//	experiments -figure fig8 -cache-dir D -merge 1             # assemble
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sensornet/internal/chaos"
	"sensornet/internal/dist"
	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/export"
	"sensornet/internal/serve"
)

func main() {
	var (
		figure   = flag.String("figure", "all", strings.Join(experiments.FigureIDs(), "|"))
		quick    = flag.Bool("quick", false, "coarse grids and few runs (fast)")
		skipSim  = flag.Bool("skip-sim", false, "with -figure all: omit the simulated figures")
		out      = flag.String("out", "", "write the report to a file instead of stdout")
		csvDir   = flag.String("csv-dir", "", "additionally dump figure series as CSV files into this directory")
		runs     = flag.Int("runs", 0, "override simulation runs per grid point (0 = the preset's count)")
		async    = flag.Bool("async", false, "simulate with unaligned phase grids")
		workers  = flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "per-job timeout (0 = none)")
		cacheDir = flag.String("cache-dir", "", "persist surface results here and reuse them across runs")
		stats    = flag.Bool("stats", false, "print engine telemetry to stderr when done")

		shard     = flag.String("shard", "", "compute only shard i of M (\"i/M\") of the figure's cacheable jobs into -cache-dir; no figure is rendered")
		merge     = flag.Int("merge", 0, "assemble the figure strictly from -cache-dir, assuming this many shards; missing shards are reported, never recomputed")
		jsonOut   = flag.Bool("json", false, "with -merge: print missing shards/jobs as JSON on stdout when the merge is incomplete")
		serveAddr = flag.String("serve", "", "serve tuning queries from cached surfaces on this address (e.g. :8080); requires -cache-dir")

		serveBudget   = flag.Float64("serve-budget", 0, "with -serve: admission-controlled write-through budget in jobs/sec for filling cache misses (0 = strict never-recompute)")
		serveBurst    = flag.Int("serve-burst", 0, "with -serve-budget: token-bucket burst capacity (0 = ceil of the rate)")
		serveInflight = flag.Int("serve-inflight", 0, "with -serve-budget: max concurrently admitted fill jobs (0 = unbounded)")

		coordAddr = flag.String("coordinator", "", "serve the figure's job queue to remote workers on this address (e.g. :9090); results land in -cache-dir; exits when the campaign completes")
		workerURL = flag.String("worker", "", "pull job leases from the coordinator at this URL and execute them locally; run with the same -figure/-quick flags as the coordinator")
		workerID  = flag.String("worker-id", "", "worker identity reported to the coordinator (default host:pid)")
		leaseTTL  = flag.Duration("lease-ttl", 30*time.Second, "coordinator lease time-to-live; an un-heartbeated lease fails over after this long")
		failAfter = flag.Int("worker-fail-after", 0, "fault injection: worker exits (code 7) holding a lease after completing this many jobs")
		addrFile  = flag.String("dist-addr-file", "", "coordinator writes its actual listen address here once bound (for :0 listeners in scripts)")

		chaosProfile = flag.String("chaos-profile", "off", "fault injection: wrap the worker's HTTP transport in seed-deterministic chaos (off|mild|hostile); requires -worker")
		chaosSeed    = flag.Int64("chaos-seed", 0, "root seed for -chaos-profile fault streams; the same seed and profile replay the identical fault schedule")

		degRho       = flag.Float64("deg-rho", 60, "density for the degradation study")
		crashRates   = flag.String("crash-rates", "", "comma-separated crash rates for -figure degradation (default 0,0.1,0.2,0.4)")
		lossRates    = flag.String("loss-rates", "", "comma-separated link-loss rates for -figure degradation (default 0,0.1,0.3)")
		shootRhoSpec = flag.String("shoot-rhos", "", "comma-separated densities for -figure shootout (default 40,100)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for live profiling; off by default")
	)
	flag.Parse()

	// stopProfiles flushes any requested pprof profiles; called on every
	// exit path (os.Exit skips defers).
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	stopPprof, err := startPprofServer(*pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -pprof:", err)
		os.Exit(1)
	}
	defer stopPprof()

	spec := experiments.FigureSpec{DegRho: *degRho, SkipSim: *skipSim}
	if err := checkRho(*degRho); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -deg-rho:", err)
		os.Exit(2)
	}
	if *runs < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -runs: %d is negative (0 keeps the preset's run count)\n", *runs)
		os.Exit(2)
	}
	if spec.CrashRates, err = parseRates(*crashRates); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -crash-rates:", err)
		os.Exit(2)
	}
	if spec.LossRates, err = parseRates(*lossRates); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -loss-rates:", err)
		os.Exit(2)
	}
	if spec.ShootRhos, err = parseRhos(*shootRhoSpec); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -shoot-rhos:", err)
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	spec.Analytic, spec.Sim = experiments.PaperAnalytic(), experiments.PaperSim()
	if *quick {
		spec.Analytic, spec.Sim = experiments.QuickAnalytic(), experiments.QuickSim()
	}
	if *runs > 0 {
		spec.Sim.Runs = *runs
	}
	spec.Sim.Async = *async

	var shardSpec engine.ShardSpec
	if *shard != "" {
		if shardSpec, err = engine.ParseShardSpec(*shard); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -shard:", err)
			os.Exit(2)
		}
	}
	cacheOnly := *merge > 0 || *serveAddr != ""
	if (*shard != "" || cacheOnly || *coordAddr != "") && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -shard/-merge/-serve/-coordinator need -cache-dir (the shared result store)")
		os.Exit(2)
	}
	modes := 0
	for _, on := range []bool{*shard != "", *merge > 0, *serveAddr != "", *coordAddr != "", *workerURL != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "experiments: -shard/-merge/-serve/-coordinator/-worker are exclusive: pick one")
		os.Exit(2)
	}
	if *skipSim && *figure != "all" {
		fmt.Fprintln(os.Stderr, "experiments: -skip-sim only applies to -figure all")
		os.Exit(2)
	}
	if *failAfter > 0 && *workerURL == "" {
		fmt.Fprintln(os.Stderr, "experiments: -worker-fail-after only applies to -worker")
		os.Exit(2)
	}
	if !(*serveBudget >= 0) || math.IsInf(*serveBudget, 1) {
		fmt.Fprintf(os.Stderr, "experiments: -serve-budget: %v is not a finite rate >= 0 (0 = strict never-recompute)\n", *serveBudget)
		os.Exit(2)
	}
	if *serveBurst < 0 || *serveInflight < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -serve-burst %d, -serve-inflight %d: counts must be >= 0 (0 = the default)\n", *serveBurst, *serveInflight)
		os.Exit(2)
	}
	if (*serveBudget > 0 || *serveBurst > 0 || *serveInflight > 0) && *serveAddr == "" {
		fmt.Fprintln(os.Stderr, "experiments: -serve-budget/-serve-burst/-serve-inflight only apply to -serve")
		os.Exit(2)
	}
	if (*serveBurst > 0 || *serveInflight > 0) && *serveBudget == 0 {
		fmt.Fprintln(os.Stderr, "experiments: -serve-burst/-serve-inflight only apply to -serve-budget (0 = strict never-recompute)")
		os.Exit(2)
	}
	if *leaseTTL <= 0 {
		fmt.Fprintf(os.Stderr, "experiments: -lease-ttl: %v is not a positive duration\n", *leaseTTL)
		os.Exit(2)
	}
	chaosProf, err := chaos.ParseProfile(*chaosProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -chaos-profile:", err)
		os.Exit(2)
	}
	if chaosProf != nil && *workerURL == "" {
		fmt.Fprintln(os.Stderr, "experiments: -chaos-profile only applies to -worker (the coordinator must stay truthful; proxy it for coordinator-side chaos)")
		os.Exit(2)
	}

	var cache *engine.Cache
	if *cacheDir != "" {
		cache = engine.NewCache(*cacheDir, experiments.CacheSalt)
	} else if *workerURL != "" {
		// A worker always gets at least an in-memory cache: a re-leased
		// job it already computed (its lease expired, then failed back
		// over to it) is answered from cache instead of re-executed.
		cache = engine.NewCache("", experiments.CacheSalt)
	}
	eng := engine.New(engine.Config{
		Workers:   *workers,
		Timeout:   *timeout,
		Cache:     cache,
		Shard:     shardSpec,
		CacheOnly: cacheOnly,
		// A zero -serve-budget leaves Budget nil: the strict
		// never-recompute serving contract stays the explicit default.
		Budget: engine.NewBudget(*serveBudget, *serveBurst, *serveInflight),
	})

	// Ctrl-C cancels outstanding jobs and exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *serveAddr != "":
		err = runServe(ctx, *serveAddr, *addrFile, eng, spec)
	case *shard != "" || *coordAddr != "" || *workerURL != "":
		// The figure's job set is the unit every split agrees on.
		dc := distConfig{ttl: *leaseTTL,
			failAfter: *failAfter, chaosProf: chaosProf, chaosSeed: *chaosSeed}
		if dc.jobs, err = experiments.FigureJobs(*figure, spec); err != nil {
			break
		}
		switch {
		case *coordAddr != "":
			err = runCoordinator(ctx, *coordAddr, *addrFile, cache, dc, w)
		case *workerURL != "":
			err = runWorker(ctx, *workerURL, *workerID, eng, dc, w)
		default:
			err = runShard(ctx, eng, dc.jobs, w)
		}
	default:
		var figs []*experiments.FigureResult
		if figs, err = experiments.RunFigures(ctx, eng, spec, w, *figure); err == nil {
			err = dumpCSV(*csvDir, spec.Analytic.Rhos, figs...)
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, eng.Stats())
		if cache != nil {
			cs := cache.Stats()
			fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d stores\n",
				cs.Hits, cs.Misses, cs.Stores)
		}
	}
	if err != nil {
		stopProfiles()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			os.Exit(130)
		}
		if errors.Is(err, dist.ErrFailInjected) {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(7)
		}
		var missing *engine.MissingError
		if errors.As(err, &missing) {
			if *jsonOut {
				if jerr := printMissingJSON(os.Stdout, missing, *merge); jerr != nil {
					fmt.Fprintln(os.Stderr, "experiments: -json:", jerr)
				}
			}
			fmt.Fprintf(os.Stderr, "experiments: merge incomplete: %d job(s) not in the cache", len(missing.Jobs))
			if *merge > 1 {
				fmt.Fprintf(os.Stderr, "; run (or re-run) shard(s) %v of %d", missing.MissingShards(*merge), *merge)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// printMissingJSON renders an incomplete merge machine-readably: the
// shard indices still owed to the cache plus every missing job, so
// scripts can re-dispatch exactly the remaining work.
func printMissingJSON(w io.Writer, missing *engine.MissingError, total int) error {
	if total < 1 {
		total = 1
	}
	type jobJSON struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
		Shard       int    `json:"shard"`
	}
	out := struct {
		Shards        int       `json:"shards"`
		MissingShards []int     `json:"missingShards"`
		Jobs          []jobJSON `json:"jobs"`
	}{Shards: total, MissingShards: missing.MissingShards(total)}
	for _, j := range missing.Jobs {
		out.Jobs = append(out.Jobs, jobJSON{
			Name: j.Name, Fingerprint: j.Fingerprint,
			Shard: engine.ShardOf(j.Fingerprint, total),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runShard computes this process's shard of the figure's jobs into the
// shared cache and reports what it did; rendering is the merge step's
// business.
func runShard(ctx context.Context, eng *engine.Engine, jobs []engine.Job, w io.Writer) error {
	rep, err := experiments.RunShard(ctx, eng, jobs)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, rep)
	return err
}

// distConfig carries what the distributed roles run: the figure's job
// set (whose fingerprints are the protocol's only job identity, so both
// roles build it from the same flags) and each role's own knobs.
type distConfig struct {
	jobs      []engine.Job
	ttl       time.Duration
	failAfter int
	chaosProf *chaos.Profile
	chaosSeed int64
}

// runCoordinator serves the figure's job queue until every job is
// terminal (or the context is cancelled), shutting the listener down
// gracefully, then reports the final campaign stats. Jobs retired after
// repeated worker failures make the run fail.
func runCoordinator(ctx context.Context, addr, addrFile string, cache *engine.Cache,
	cfg distConfig, w io.Writer) error {
	coord, err := dist.NewCoordinator(dist.Config{
		Sink:     cache,
		LeaseTTL: cfg.ttl,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
		},
	}, cfg.jobs)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	hs := &http.Server{
		Handler:           coord,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       5 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "experiments: coordinating %d job(s) on %s (%s lease TTL)\n",
		len(cfg.jobs), ln.Addr(), cfg.ttl)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		// Graceful drain: stop granting leases, let in-flight heartbeats
		// and results land, then shut down. Bounded by the lease TTL —
		// past that every outstanding lease has expired and the drain
		// resolves by itself.
		coord.Drain()
		fmt.Fprintln(os.Stderr, "experiments: interrupt — draining (in-flight leases finish; Ctrl-C again to force)")
		drainTimer := time.NewTimer(cfg.ttl + 5*time.Second)
		forceCtx, forceStop := signal.NotifyContext(context.Background(), os.Interrupt)
		select {
		case <-coord.Drained():
			// Same beat as the Done path below: a worker between its
			// result post and its next lease poll must observe Draining,
			// not a refused socket.
			select {
			case <-time.After(time.Second):
			case <-forceCtx.Done():
			}
		case <-drainTimer.C:
		case <-forceCtx.Done():
		}
		drainTimer.Stop()
		forceStop()
	case <-coord.Done():
		// Give idle pollers a beat to collect their Done response before
		// the listener refuses new connections.
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}

	s := coord.Stats()
	fmt.Fprintf(w, "coordinator: %d/%d jobs completed (%d cached at start), %d failed, %d leases expired, %d workers, %d ingested, %d duplicates, %d dup-ingests\n",
		s.Completed, s.Jobs, s.CachedAtStart, s.Failed, s.Expired, len(s.Workers),
		s.Ingested, s.Duplicates, cache.Stats().IngestDupes)
	if ctx.Err() != nil {
		return context.Canceled
	}
	if failed := coord.FailedJobs(); len(failed) > 0 {
		names := make([]string, len(failed))
		for i, j := range failed {
			names[i] = j.Name
		}
		return fmt.Errorf("campaign incomplete: %d job(s) retired after repeated worker failures: %s",
			len(failed), strings.Join(names, ", "))
	}
	return nil
}

// runWorker executes leases from the coordinator until the campaign
// completes. The -worker-fail-after fault surfaces as
// dist.ErrFailInjected, which main maps to exit code 7.
func runWorker(ctx context.Context, url, id string, eng *engine.Engine,
	cfg distConfig, w io.Writer) error {
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	var client *http.Client
	if cfg.chaosProf != nil {
		// Seed-deterministic hostile transport between this worker and
		// the coordinator: same -chaos-seed + -chaos-profile ⇒ the
		// identical fault schedule, so a flaky-looking run replays.
		client = &http.Client{
			Timeout:   30 * time.Second,
			Transport: chaos.Wrap(nil, cfg.chaosProf, cfg.chaosSeed),
		}
		fmt.Fprintf(os.Stderr, "experiments: chaos transport %q enabled (seed %d)\n",
			cfg.chaosProf.Name, cfg.chaosSeed)
	}
	worker, err := dist.NewWorker(dist.WorkerConfig{
		ID:        id,
		BaseURL:   url,
		Engine:    eng,
		Jobs:      cfg.jobs,
		Client:    client,
		FailAfter: cfg.failAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	rep, err := worker.Run(ctx)
	if rep != nil {
		fmt.Fprintln(w, rep)
	}
	return err
}

// runServe blocks serving tuning queries until the context is
// cancelled (Ctrl-C), then shuts the listener down gracefully. The
// surface snapshots are warmed eagerly, so a server over a populated
// cache pays its cache reads before the first request; cold surfaces
// are reported and left to retry per request (shards may publish
// later). addrFile, when set, receives the bound listen address (for
// :0 listeners in scripts).
func runServe(ctx context.Context, addr, addrFile string, eng *engine.Engine,
	spec experiments.FigureSpec) error {
	srv, err := serve.NewCtx(ctx, eng, spec.Analytic, spec.Sim, serve.WithShootoutRhos(spec.ShootRhos))
	if err != nil {
		return err
	}
	if err := srv.Warm(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: serve warm-up incomplete (cold surfaces retry per request):", err)
	}
	if b := eng.Budget(); b != nil {
		fmt.Fprintf(os.Stderr, "experiments: write-through %s\n", b.Stats())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       5 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "experiments: serving tuning queries on %s\n", ln.Addr())
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(shutCtx)
	}
}

// startPprofServer optionally serves net/http/pprof on its own mux and
// listener — never the serving or coordinator mux, so enabling
// profiling cannot expose debug handlers on a public port by accident.
// Returns the shutdown function (a no-op when addr is empty).
func startPprofServer(addr string) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// No WriteTimeout: profile captures stream for ?seconds=N.
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "experiments: -pprof:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "experiments: pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutCtx)
	}, nil
}

// startProfiles starts the requested pprof captures and returns the
// function that flushes them, safe to call more than once. Profiling is
// entirely off when both paths are empty.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
			}
		}
	}
}

// parseRhos parses a comma-separated list of positive densities; an
// empty string means "use the default pair". Unlike parseRates, rhos
// are not bounded by 1.
func parseRhos(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	rhos := make([]float64, 0, len(parts))
	for _, p := range parts {
		r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad density %q: %v", p, err)
		}
		if err := checkRho(r); err != nil {
			return nil, err
		}
		rhos = append(rhos, r)
	}
	return rhos, nil
}

// checkRho rejects a density no deployment can place.
func checkRho(r float64) error {
	if !(r > 0) || math.IsInf(r, 1) {
		return fmt.Errorf("density %v not a positive finite number", r)
	}
	return nil
}

// parseRates parses a comma-separated list of finite rates in [0, 1];
// an empty string means "use the default grid".
func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	rates := make([]float64, 0, len(parts))
	for _, p := range parts {
		r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %v", p, err)
		}
		if math.IsNaN(r) || r < 0 || r > 1 {
			return nil, fmt.Errorf("rate %v not a finite number in [0, 1]", r)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// dumpCSV writes each figure's density-indexed series to
// <dir>/<figureID>.csv.
func dumpCSV(dir string, rhos []float64, figs ...*experiments.FigureResult) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range figs {
		fh, err := os.Create(filepath.Join(dir, f.ID+".csv"))
		if err != nil {
			return err
		}
		err = export.SeriesCSV(fh, f, rhos)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Command sensorbench is the repository benchmark. From one process it
// drives three workloads through the public APIs of the experiments,
// engine, dist and serve packages, checks their outputs, and prints
// every metric by name with its unit and sample count. The last line of
// standard output is one JSON object,
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics or, with --trace 1, the per-layer
// metrics of a traced run. README.md describes the workloads, the
// metrics and the layer each one belongs to.
//
// Build and run it from the repository root through run.sh:
//
//	bash _sensorbench/run.sh --workload shootout --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, as BENCHMARK.json
// declares them. Every workload reports every one; README.md gives each
// workload's reading of them.
var endToEnd = []spec{
	{"campaign_s", "s"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
	{"op_ms", "ms"},
}

// perLayer lists the metrics a traced run reports, as BENCHMARK.json
// declares them. A layer the workload leaves idle reports 0.
var perLayer = []spec{
	{"deploy.generate_s", "s"},
	{"deploy.generate_calls", "count"},
	{"deploy.gain_evals", "count"},
	{"channel.resolve_s.cfm", "s"},
	{"channel.resolve_s.cam", "s"},
	{"channel.resolve_s.sinr", "s"},
	{"channel.slots", "count"},
	{"sim.run_s", "s"},
	{"sim.runs", "count"},
	{"sim.alloc_mb", "MB"},
	{"analytic.calibrate_s", "s"},
	{"analytic.calibrate_calls", "count"},
	{"analytic.point_s", "s"},
	{"experiments.jobs_build_s", "s"},
	{"experiments.render_s", "s"},
	{"experiments.cell_s", "s"},
	{"engine.dispatch_s", "s"},
	{"engine.encode_s", "s"},
	{"engine.ingest_s", "s"},
	{"engine.ingest_calls", "count"},
	{"engine.merge_s", "s"},
	{"engine.cache_bytes", "bytes"},
	{"engine.cache_hits_per_refresh", "count"},
	{"dist.lease_rtt_ms.p50", "ms"},
	{"dist.lease_rtt_ms.p99", "ms"},
	{"dist.result_rtt_ms.p50", "ms"},
	{"dist.result_rtt_ms.p99", "ms"},
	{"dist.heartbeats", "count"},
	{"dist.backpressured", "count"},
	{"dist.steals", "count"},
	{"dist.duplicates", "count"},
	{"dist.expired", "count"},
	{"dist.backoff_wait_s", "s"},
	{"dist.worker_busy_ratio", "ratio"},
	{"dist.ingest_ratio", "ratio"},
	{"serve.handler_us.p50.optimal", "us"},
	{"serve.handler_us.p99.optimal", "us"},
	{"serve.handler_us.p50.surface_row", "us"},
	{"serve.handler_us.p99.surface_row", "us"},
	{"serve.handler_us.p50.surface_full", "us"},
	{"serve.handler_us.p99.surface_full", "us"},
	{"serve.handler_us.p50.shootout", "us"},
	{"serve.handler_us.p99.shootout", "us"},
	{"serve.refresh_ms", "ms"},
	{"serve.p99_ms_during_refresh", "ms"},
	{"serve.not_modified_ratio", "ratio"},
	{"serve.warm_s", "s"},
	{"http.transport_ms.p50", "ms"},
	{"http.transport_ms.p99", "ms"},
	{"gen.late_ms.p99", "ms"},
	{"p50_ms_500qps", "ms"},
	{"p99_ms_500qps", "ms"},
	{"p50_ms_2000qps", "ms"},
	{"p99_ms_2000qps", "ms"},
	{"max_qps_p99_5ms", "1/s"},
	{"refresh_p50_ms", "ms"},
	{"error_rate", "ratio"},
	{"campaign_wall_s", "s"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"trace.layer_share", "ratio"},
	{"trace.spans", "count"},
	{"trace.replay_mismatches", "count"},
}

// workers is the load ceiling every workload keeps to on a two-core
// box: at most two engine workers, two dist workers and two read
// connections.
const workers = 2

// untracedShare is the part of a traced run spent on untraced
// campaigns: the baseline the tracing overhead is measured against.
const untracedShare = 1.0 / 3

// env is what a workload run is given.
type env struct {
	seed    int64
	seconds float64
	// rec records spans; nil for an untraced run.
	rec *recorder
	// tmp is scratch space inside the checkout, removed at exit.
	tmp string
	log io.Writer
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	// mismatches holds the first failed output checks verbatim;
	// nMismatch counts them all. Any makes the run incorrect.
	mismatches []string
	nMismatch  int
	// e2e holds the endToEnd metrics; report the workload's own
	// figures (printed, and part of the per-layer set when traced);
	// layers the per-layer metrics of a traced run.
	e2e, report, layers metricSet
}

func (o *outcome) mismatch(format string, args ...any) {
	o.nMismatch++
	if len(o.mismatches) < 10 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, *env) (*outcome, error){
	"shootout":      runShootout,
	"dist-analytic": runDistAnalytic,
	"serve-mixed":   runServeMixed,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sensorbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "shootout, dist-analytic or serve-mixed")
	seed := fs.Int64("seed", 1, "input seed: picks the shootout preset seed and the serve request mix")
	seconds := fs.Float64("seconds", 20, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 records spans around each layer's entry points and reports per-layer metrics")
	pinsOut := fs.String("write-pins", "", "recompute the pinned shootout outputs into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pinsOut != "" {
		if err := writePins(ctx, *pinsOut); err != nil {
			fmt.Fprintln(stderr, "sensorbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "sensorbench: --workload %q: want shootout, dist-analytic or serve-mixed\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "sensorbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// Whatever happens, a run ends well inside three minutes.
	ctx, cancel := context.WithTimeout(ctx, min(secs(4**seconds+60), 170*time.Second))
	defer cancel()

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "sensorbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "sensorbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: *seed, seconds: *seconds, tmp: tmp, log: stderr}
	if *traced == 1 {
		e.rec = newRecorder()
	}
	out, err := fn(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "sensorbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.rec != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := e.rec.write(path); err != nil {
			fmt.Fprintln(stderr, "sensorbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "sensorbench: wrote %d spans to %s\n", len(e.rec.snapshot()), path)
	}

	out.e2e.print(stdout, *workload+": end-to-end")
	out.report.print(stdout, *workload+": workload figures")
	if e.rec != nil {
		out.layers.print(stdout, *workload+": per-layer (traced)")
	}
	for _, m := range out.mismatches {
		fmt.Fprintln(stdout, "output check failed:", m)
	}
	if more := out.nMismatch - len(out.mismatches); more > 0 {
		fmt.Fprintf(stdout, "output check failed: %d more\n", more)
	}
	line, err := resultLine(out, e.rec != nil)
	if err != nil {
		fmt.Fprintf(stderr, "sensorbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object: the endToEnd metrics of an
// untraced run, the perLayer metrics (with the workload figures) of a
// traced one. An end-to-end metric must have been measured; a per-layer
// metric the workload did not produce reads 0, its layer idle.
func resultLine(o *outcome, traced bool) ([]byte, error) {
	want, have := endToEnd, o.e2e
	if traced {
		want = perLayer
		have = metricSet{list: append(append([]metric(nil), o.layers.list...), o.report.list...)}
	}
	if err := have.validate(); err != nil {
		return nil, err
	}
	declared := map[string]bool{}
	out := make(map[string]jsonMetric, len(want))
	for _, s := range want {
		declared[s.name] = true
		m, ok := have.get(s.name)
		switch {
		case ok && m.Unit != s.unit:
			return nil, fmt.Errorf("metric %s reported in %s, declared in %s", s.name, m.Unit, s.unit)
		case !traced && (!ok || m.Missing):
			return nil, fmt.Errorf("end-to-end metric %s was not measured (n=%d)", s.name, m.N)
		case m.Missing:
			m.Value = 0
		}
		out[s.name] = jsonMetric{Value: m.Value, Unit: s.unit}
	}
	var stray []string
	for _, m := range have.list {
		if !declared[m.Name] {
			stray = append(stray, m.Name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics %v are not declared", stray)
	}
	if o.attempted < 1 {
		return nil, fmt.Errorf("the run attempted nothing")
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.nMismatch == 0, o.attempted, o.failed, out})
}

// secs converts float seconds into a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ms converts a duration into float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

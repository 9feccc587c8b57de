package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sensornet/internal/analytic"
	"sensornet/internal/channel"
	"sensornet/internal/deploy"
	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
	"sensornet/internal/trace"
)

// The shootout workload is the cold cross-scheme shootout: every
// (channel model, density, scheme) cell of the quick preset, computed
// on a fresh in-memory engine with one worker. Deployment (with its
// SINR gain tables), channel resolution, the sim slot loop and the PB
// law calibration do nearly all the work; engine, dist and serve almost
// none.

// presetSeed maps the benchmark seed onto one of the four preset seeds
// whose shootout outputs pins.json pins.
func presetSeed(seed int64) int64 { return 1 + (seed%4+4)%4 }

// shootPreset is the shootout's input: the quick simulation preset
// under the seed's preset seed.
func shootPreset(seed int64) experiments.Preset {
	pre := experiments.QuickSim()
	pre.Seed = presetSeed(seed)
	return pre
}

// campaign is one measured campaign.
type campaign struct {
	wall  time.Duration
	alloc uint64
	// setup holds its set-up times in seconds.
	setup []float64
	// ops are job round trips in ms (dist-analytic); cells are the cell
	// jobs' durations in ms by job name (shootout).
	ops   []float64
	cells map[string]float64
	// scale brings its times to nominal host speed (see ref.go).
	scale float64
}

func walls(cs []campaign) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.wall.Seconds()
	}
	return out
}

// shootWorkers is the shootout engine's worker count: one, as the
// campaign workloads run on one processor (see ref.go), so that a cell
// job's duration is its own work.
const shootWorkers = 1

// addCampaigns reports the end-to-end metrics of a campaign workload.
// Times are scaled to nominal host speed; the raw campaign wall time and
// the reference kernel's times refs are workload figures.
func addCampaigns(out *outcome, cs []campaign, refs []float64) {
	var wall, alloc, setup []float64
	for _, c := range cs {
		wall = append(wall, c.scale*c.wall.Seconds())
		alloc = append(alloc, float64(c.alloc)/1e6)
		for _, s := range c.setup {
			setup = append(setup, c.scale*s)
		}
	}
	op, n := opMs(cs)
	out.e2e.add("campaign_s", "s", median(wall), len(wall))
	out.e2e.add("alloc_mb", "MB", median(alloc), len(alloc))
	out.e2e.add("setup_s", "s", median(setup), len(setup))
	out.e2e.add("op_ms", "ms", op, n)
	out.report.add("campaign_wall_s", "s", median(walls(cs)), len(cs))
	out.report.add("host.ref_ms", "ms", 1e3*median(refs), len(refs))
	out.report.add("error_rate", "ratio", ratio(float64(out.failed), float64(out.attempted)), out.attempted)
}

// opMs is a campaign workload's typical operation time in ms, and the
// number of operations behind it. Alike operations (dist-analytic's job
// round trips) give their median. The shootout's operations are 24
// distinct cells, half of them several times the size of the other
// half, so a median over them all would be the slowest run of the
// largest small cell; each cell's median over the campaigns is taken
// instead, and those are averaged over the cells. Times are scaled to
// nominal host speed.
func opMs(cs []campaign) (float64, int) {
	var ops []float64
	byCell := map[string][]float64{}
	for _, c := range cs {
		for _, d := range c.ops {
			ops = append(ops, c.scale*d)
		}
		for name, d := range c.cells {
			byCell[name] = append(byCell[name], c.scale*d)
		}
	}
	if len(byCell) == 0 {
		return median(ops), len(ops)
	}
	sum, n := 0.0, 0
	for _, ds := range byCell {
		sum += median(ds)
		n += len(ds)
	}
	return sum / float64(len(byCell)), n
}

func runShootout(ctx context.Context, e *env) (*outcome, error) {
	pre := shootPreset(e.seed)
	rhos := experiments.DefaultShootoutRhos()
	pin, err := pinFor(pre.Seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	plainFor := e.seconds
	if e.rec != nil {
		plainFor *= untracedShare
	}
	var plain []campaign
	speed := &hostSpeed{}
	speed.sample()
	for until := time.Now().Add(secs(plainFor)); len(plain) < 3 || time.Now().Before(until); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Set-up is the job-set build, which calibrates the PB law. It is
		// timed three times before every campaign rather than in a burst
		// at start, where the first calls run slow by a varying amount.
		var setup []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := experiments.ShootoutJobs(pre, rhos); err != nil {
				return nil, err
			}
			setup = append(setup, time.Since(start).Seconds())
		}
		c, _, ok := shootCampaign(ctx, e, 0, pre, rhos, pin, out)
		speed.sample()
		if ok {
			c.setup, c.scale = setup, speed.scale()
			plain = append(plain, c)
		}
	}
	addCampaigns(out, plain, speed.refs)
	if e.rec == nil {
		return out, nil
	}

	law, cost, err := calibrationCost(pre)
	if err != nil {
		return nil, err
	}
	var traced []campaign
	var ls shootLayers
	for run, until := 1, time.Now().Add(secs(e.seconds-plainFor)); len(traced) < 2 || time.Now().Before(until); run++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, tl, ok := shootCampaign(ctx, e, run, pre, rhos, pin, out)
		if !ok {
			continue
		}
		traced = append(traced, c)
		if err := traceShootout(ctx, e.rec, run, pre, law, cost, rhos, tl, out, &ls); err != nil {
			return nil, err
		}
	}
	shootLayerMetrics(out, e.rec.snapshot(), plain, traced, ls)
	return out, nil
}

// shootTimeline is what a campaign's engine reported about it: when the
// campaign began and ended, when the first cell started and the last
// ended, and each cell's span. The campaign itself is one opaque
// experiments.ShootoutCtx call, so these boundaries are where a trace
// can split it.
type shootTimeline struct {
	eng                     *engine.Engine
	pool                    int64 // the reserved engine.run span
	start, first, last, end time.Time
	cells                   map[string]cellSpan // by job name
}

// cellSpan is one cell job's recorded span.
type cellSpan struct {
	id  int64
	dur time.Duration
}

// shootCampaign runs one cold shootout and checks its rendering. Traced
// and untraced campaigns make the same calls; run > 0 also records each
// cell job as an experiments.cell span from the engine's events, under
// an engine.run span traceShootout records afterwards.
func shootCampaign(ctx context.Context, e *env, run int, pre experiments.Preset, rhos []float64,
	pin shootPin, out *outcome) (campaign, shootTimeline, bool) {

	var rec *recorder
	if run > 0 {
		rec = e.rec
	}
	tl := shootTimeline{pool: rec.reserve(), cells: map[string]cellSpan{}}
	var mu sync.Mutex
	cells := map[string]float64{}
	tl.eng = engine.New(engine.Config{Workers: shootWorkers, Cache: engine.NewCache("", experiments.CacheSalt),
		OnEvent: func(ev engine.Event) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case engine.EventStart:
				if tl.first.IsZero() {
					tl.first = now
				}
			case engine.EventDone:
				tl.last = now
				cells[ev.Job] = ms(ev.Duration)
				if rec != nil {
					id := rec.add(run, tl.pool, "experiments.cell", now.Add(-ev.Duration), now)
					tl.cells[ev.Job] = cellSpan{id: id, dur: ev.Duration}
				}
			}
		}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tl.start = time.Now()
	fig, err := experiments.ShootoutCtx(ctx, tl.eng, pre, rhos)
	if err == nil {
		err = fig.Render(&bytes.Buffer{})
	}
	tl.end = time.Now()
	runtime.ReadMemStats(&after)
	jobs := max(tl.eng.Stats().Jobs, 1)
	out.attempted += jobs
	if err != nil {
		out.failed += jobs
		fmt.Fprintln(e.log, "sensorbench: shootout campaign failed:", err)
		return campaign{}, tl, false
	}
	checkShootout(fig, pin, out)
	c := campaign{wall: tl.end.Sub(tl.start), alloc: after.TotalAlloc - before.TotalAlloc, cells: cells}
	return c, tl, true
}

// shootLayers accumulates what the replays of a traced run count.
type shootLayers struct {
	campaigns, calibrations, gains, slots, mismatches int
	simAlloc                                          uint64
	// dispatch is the engine pool's worker-seconds not spent in jobs.
	dispatch float64
}

// calibrationCost times direct analytic.CalibrateLaw calls with the
// arguments the shootout study uses, outside any campaign, and returns
// the law with the median cost of one call.
func calibrationCost(pre experiments.Preset) (analytic.OptimalProbabilityLaw, time.Duration, error) {
	var law analytic.OptimalProbabilityLaw
	var costs []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		l, err := analytic.CalibrateLaw(pre.P, pre.S, 60, pre.Constraints.Latency, 0.02)
		if err != nil {
			return law, 0, err
		}
		costs = append(costs, time.Since(start).Seconds())
		law = l
	}
	return law, secs(median(costs)), nil
}

// traceShootout records a traced campaign's layers from its timeline,
// after the campaign. ShootoutCtx builds the study (which calibrates the
// PB law and builds the cell jobs) before the engine starts the first
// cell, and builds it again to render after the last cell ends, so the
// gap before the first cell is experiments.jobs_build, the cells run
// under engine.run, and the rest is experiments.render. Each of the two
// study builds calls CalibrateLaw once, which no hook can time from
// outside; each is charged one analytic.calibrate span of the cost
// calibrationCost measured, so analytic.calibrate_calls is derived from
// the study's structure, not counted. Then the opaque cells are split
// by replay.
func traceShootout(ctx context.Context, rec *recorder, run int, pre experiments.Preset,
	law analytic.OptimalProbabilityLaw, cost time.Duration, rhos []float64, tl shootTimeline,
	out *outcome, ls *shootLayers) error {

	root, build, render := rec.reserve(), rec.reserve(), rec.reserve()
	rec.addAs(root, run, 0, "campaign", tl.start, tl.end)
	rec.addAs(build, run, root, "experiments.jobs_build", tl.start, tl.first)
	rec.addAs(tl.pool, run, root, "engine.run", tl.first, tl.last)
	rec.addAs(render, run, root, "experiments.render", tl.last, tl.end)
	busy := time.Duration(0)
	for _, c := range tl.cells {
		busy += c.dur
	}
	ls.dispatch += math.Max(0, (shootWorkers*tl.last.Sub(tl.first) - busy).Seconds())
	for _, p := range []struct {
		id  int64
		dur time.Duration
	}{{build, tl.first.Sub(tl.start)}, {render, tl.end.Sub(tl.last)}} {
		at := time.Now()
		rec.add(run, p.id, "analytic.calibrate", at, at.Add(min(cost, p.dur)))
		ls.calibrations++
	}

	// The cells' results, read back from the warm engine's cache.
	jobs, err := experiments.ShootoutJobs(pre, rhos)
	if err != nil {
		return err
	}
	results, err := tl.eng.Run(ctx, jobs)
	if err != nil {
		return err
	}
	for i, j := range jobs {
		c, ok := tl.cells[j.Name()]
		if !ok {
			ls.mismatches++
			out.mismatch("shootout trace: cell %s ran no job", j.Name())
			continue
		}
		replayCell(rec, run, pre, law, j, c, results[i], out, ls)
	}
	ls.campaigns++
	return nil
}

// replayPiece is one replication's replayed layers.
type replayPiece struct {
	deploy, sim, channel time.Duration
	alloc                uint64
	gains, slots         int
	coverage             float64
}

// replayCell splits one cell — an opaque engine job averaging the
// preset's replications — into layers. It re-runs each replication
// piece by piece from the same seed: the deployment alone (deploy), the
// whole simulation (sim, whose run includes that same deployment and
// channel work), and the simulation's recorded per-slot transmitter sets
// through a fresh resolver (channel). sim.run spans go under the cell,
// deploy and channel spans under sim.run, all scaled down when the
// replay took longer than the cell itself. A replay whose mean coverage
// differs from the cell's result would describe different work: it
// fails the run's output check.
func replayCell(rec *recorder, run int, pre experiments.Preset, law analytic.OptimalProbabilityLaw,
	job engine.Job, cell cellSpan, res engine.Result, out *outcome, ls *shootLayers) {

	fail := func(format string, args ...any) {
		ls.mismatches++
		out.mismatch("shootout trace: cell %s: "+format, append([]any{job.Name()}, args...)...)
	}
	cfg, ok := cellConfig(job.Name(), pre, law)
	if !ok {
		fail("no replay config for the name")
		return
	}
	pieces := make([]replayPiece, pre.Runs)
	var simTotal time.Duration
	coverage := 0.0
	for r := range pieces {
		c := cfg
		c.Seed = pre.Seed + int64(r)
		p, err := replayRun(c)
		if err != nil {
			fail("replay: %v", err)
			return
		}
		pieces[r] = p
		simTotal += p.sim
		coverage += p.coverage
		ls.gains += p.gains
		ls.slots += p.slots
		ls.simAlloc += p.alloc
	}
	coverage /= float64(pre.Runs)
	if want, ok := cellCoverage(job, res); !ok || want != coverage {
		fail("replay coverage %v, the cell's %v", coverage, want)
	}
	scale := 1.0
	if simTotal > cell.dur {
		scale = float64(cell.dur) / float64(simTotal)
	}
	scaled := func(d time.Duration) time.Duration { return time.Duration(float64(d) * scale) }
	resolve := "channel.resolve." + strings.ToLower(cfg.Model.String())
	for _, p := range pieces {
		at := time.Now()
		simID := rec.reserve()
		rec.add(run, simID, "deploy.generate", at, at.Add(scaled(p.deploy)))
		rec.add(run, simID, resolve, at, at.Add(scaled(p.channel)))
		rec.addAs(simID, run, cell.id, "sim.run", at, at.Add(scaled(p.sim)))
	}
}

// cellConfig rebuilds a shootout cell's simulation config from its job
// name, "shoot(<model>,<scheme>,rho=<density>)", the way the shootout
// study builds it.
func cellConfig(name string, pre experiments.Preset, law analytic.OptimalProbabilityLaw) (sim.Config, bool) {
	inner, ok := strings.CutPrefix(name, "shoot(")
	parts := strings.Split(strings.TrimSuffix(inner, ")"), ",")
	if !ok || len(parts) != 3 {
		return sim.Config{}, false
	}
	rho, err := strconv.ParseFloat(strings.TrimPrefix(parts[2], "rho="), 64)
	if err != nil {
		return sim.Config{}, false
	}
	cfg := pre.SimConfig(rho)
	switch parts[0] {
	case "CFM":
		cfg.Model = channel.CFM
	case "CAM":
		cfg.Model = channel.CAM
	case "SINR":
		cfg.Model = channel.ModelSINR
		cfg.SINR = channel.DefaultSINRParams()
	default:
		return sim.Config{}, false
	}
	switch parts[1] {
	case "flooding":
		cfg.Protocol = protocol.Flooding{}
	case "pb":
		cfg.Protocol = protocol.Probability{P: law.P(rho)}
	case "counter":
		cfg.Protocol = protocol.Counter{Threshold: 3}
	case "distance":
		cfg.Protocol = protocol.Distance{MinDist: 0.4}
	default:
		return sim.Config{}, false
	}
	if cfg.MaxPhases == 0 {
		cfg.MaxPhases = max(10, 2*int(pre.Constraints.Latency))
	}
	return cfg, true
}

// cellCoverage reads the mean coverage out of a cell's result through
// the job's own codec.
func cellCoverage(job engine.Job, res engine.Result) (float64, bool) {
	payload, err := engine.EncodeResult(job, res.Value)
	if err != nil {
		return 0, false
	}
	var v struct {
		Coverage float64 `json:"coverage"`
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		return 0, false
	}
	return v.Coverage, true
}

// replayRun replays one replication's layers.
func replayRun(cfg sim.Config) (replayPiece, error) {
	var p replayPiece
	dc := deploy.Config{P: cfg.P, R: cfg.R, Rho: cfg.Rho, N: cfg.N,
		WithSensing: cfg.Model == channel.CAMCarrierSense || cfg.Model == channel.ModelSINR}
	if cfg.Model == channel.ModelSINR {
		dc.GainAlpha = cfg.SINR.Alpha
	}
	start := time.Now()
	dep, err := deploy.Generate(dc, rand.New(rand.NewSource(cfg.Seed)))
	p.deploy = time.Since(start)
	if err != nil {
		return p, err
	}
	for i := range dep.Gains {
		p.gains += len(dep.Gains[i])
	}
	for i := range dep.SensingGains {
		p.gains += len(dep.SensingGains[i])
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	res, err := sim.Run(cfg)
	p.sim = time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return p, err
	}
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.coverage = res.Timeline.FinalReachability()

	var txs txLog
	logged := cfg
	logged.Tracer = &txs
	if _, err := sim.Run(logged); err != nil {
		return p, err
	}
	start = time.Now()
	var rs *channel.Resolver
	if cfg.Model == channel.ModelSINR {
		rs, err = channel.NewResolverSINR(dep, cfg.SINR)
	} else {
		rs, err = channel.NewResolver(cfg.Model, dep)
	}
	if err != nil {
		return p, err
	}
	for _, slot := range txs.slots {
		rs.ResolveSlotTraced(slot, ignoreDelivery, ignoreCollision)
	}
	p.channel = time.Since(start)
	p.slots = len(txs.slots)
	return p, nil
}

func ignoreDelivery(from, to int32)   {}
func ignoreCollision(to, heard int32) {}

// txLog is a sim tracer keeping only each slot's transmitter set.
type txLog struct {
	slots       [][]int32
	phase, slot int32
}

// Record implements trace.Tracer.
func (t *txLog) Record(ev trace.Event) {
	if ev.Kind != trace.KindTx {
		return
	}
	if len(t.slots) == 0 || ev.Phase != t.phase || ev.Slot != t.slot {
		t.slots = append(t.slots, nil)
		t.phase, t.slot = ev.Phase, ev.Slot
	}
	last := len(t.slots) - 1
	t.slots[last] = append(t.slots[last], ev.Node)
}

// shootLayerMetrics reports a traced shootout run's per-layer metrics,
// each per campaign.
func shootLayerMetrics(out *outcome, spans []span, plain, traced []campaign, ls shootLayers) {
	st := summarise(spans)
	per := func(v float64) float64 { return ratio(v, float64(ls.campaigns)) }
	count := func(name string) float64 { return per(float64(st.count[name])) }
	l := &out.layers
	l.add("deploy.generate_s", "s", per(st.self["deploy.generate"]), st.count["deploy.generate"])
	l.add("deploy.generate_calls", "count", count("deploy.generate"), 0)
	l.add("deploy.gain_evals", "count", per(float64(ls.gains)), 0)
	for _, m := range []string{"cfm", "cam", "sinr"} {
		name := "channel.resolve." + m
		l.add("channel.resolve_s."+m, "s", per(st.self[name]), st.count[name])
	}
	l.add("channel.slots", "count", per(float64(ls.slots)), 0)
	l.add("sim.run_s", "s", per(st.self["sim.run"]), st.count["sim.run"])
	l.add("sim.runs", "count", count("sim.run"), 0)
	l.add("sim.alloc_mb", "MB", per(float64(ls.simAlloc)/1e6), 0)
	l.add("analytic.calibrate_s", "s", per(st.self["analytic.calibrate"]), st.count["analytic.calibrate"])
	l.add("analytic.calibrate_calls", "count", per(float64(ls.calibrations)), 0)
	l.add("experiments.jobs_build_s", "s", per(st.self["experiments.jobs_build"]), st.count["experiments.jobs_build"])
	l.add("experiments.render_s", "s", per(st.self["experiments.render"]), st.count["experiments.render"])
	l.add("experiments.cell_s", "s", per(st.total["experiments.cell"]), st.count["experiments.cell"])
	l.add("engine.dispatch_s", "s", per(ls.dispatch), 0)
	l.add("trace.replay_mismatches", "count", float64(ls.mismatches), 0)
	addTraceMetrics(out, spans, plain, traced, "deploy", "channel", "sim", "analytic")
}

// addTraceMetrics reports the tracing overhead (median traced minus
// median untraced campaign wall time) and the share of all span self
// time the workload's named layers account for.
func addTraceMetrics(out *outcome, spans []span, plain, traced []campaign, layers ...string) {
	out.layers.add("trace.overhead_s", "s", median(walls(traced))-median(walls(plain)), len(traced))
	out.layers.add("trace.layer_share", "ratio", layerShare(spans, layers...), 0)
	out.layers.add("trace.spans", "count", float64(len(spans)), 0)
}

// SINR cells may move by a few decodes when the gain arithmetic changes
// bits (a change the roadmap plans on purpose), so they are pinned to
// 5% relative or 0.05 absolute, whichever is looser. CFM and CAM never
// touch the gains and are pinned exactly.
const (
	sinrRelTol = 0.05
	sinrAbsTol = 0.05
)

//go:embed pins.json
var pinsJSON []byte

// shootPin is one preset seed's pinned shootout output: a digest of the
// rendered CFM and CAM tables, and the SINR table's rows.
type shootPin struct {
	CFMCAM string     `json:"cfm_cam_sha256"`
	SINR   [][]string `json:"sinr_rows"`
}

func pinFor(presetSeed int64) (shootPin, error) {
	var pins map[string]shootPin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return shootPin{}, fmt.Errorf("pins.json: %w", err)
	}
	p, ok := pins[strconv.FormatInt(presetSeed, 10)]
	if !ok {
		return shootPin{}, fmt.Errorf("pins.json pins no shootout for preset seed %d", presetSeed)
	}
	return p, nil
}

// writePins recomputes every preset seed's pin into path.
func writePins(ctx context.Context, path string) error {
	pins := map[string]shootPin{}
	for s := int64(0); s < 4; s++ {
		pre := shootPreset(s)
		fig, err := experiments.ShootoutCtx(ctx, engine.New(engine.Config{Workers: workers}), pre,
			experiments.DefaultShootoutRhos())
		if err != nil {
			return err
		}
		if len(fig.Tables) != 3 {
			return fmt.Errorf("shootout rendered %d tables, want 3", len(fig.Tables))
		}
		pins[strconv.FormatInt(pre.Seed, 10)] = shootPin{CFMCAM: tablesDigest(fig.Tables[:2]), SINR: fig.Tables[2].Rows}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func tablesDigest(ts []experiments.Table) string {
	h := sha256.New()
	for _, t := range ts {
		_ = t.Render(h) // a hash never fails a write
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkShootout compares a rendered shootout with its pin.
func checkShootout(fig *experiments.FigureResult, pin shootPin, out *outcome) {
	if len(fig.Tables) != 3 {
		out.mismatch("shootout rendered %d tables, want CFM, CAM and SINR", len(fig.Tables))
		return
	}
	if got := tablesDigest(fig.Tables[:2]); got != pin.CFMCAM {
		out.mismatch("shootout CFM/CAM tables digest %s, pinned %s", got, pin.CFMCAM)
	}
	rows := fig.Tables[2].Rows
	if len(rows) != len(pin.SINR) {
		out.mismatch("shootout SINR table has %d rows, pinned %d", len(rows), len(pin.SINR))
		return
	}
	for i, row := range rows {
		if len(row) != len(pin.SINR[i]) {
			out.mismatch("shootout SINR row %d has %d cells, pinned %d", i, len(row), len(pin.SINR[i]))
			continue
		}
		for j, want := range pin.SINR[i] {
			if !closeTo(row[j], want) {
				out.mismatch("shootout SINR row %d cell %d reads %s, pinned %s", i, j, row[j], want)
			}
		}
	}
}

// closeTo compares two rendered table cells: numbers within the SINR
// tolerance, anything else exactly.
func closeTo(got, want string) bool {
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(want, 64)
	if err1 != nil || err2 != nil {
		return got == want
	}
	return math.Abs(g-w) <= math.Max(sinrAbsTol, sinrRelTol*math.Abs(w))
}

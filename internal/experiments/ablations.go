package experiments

import (
	"fmt"
	"math"

	"sensornet/internal/engine"
	"sensornet/internal/optimize"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
)

// collCell is the cached aggregate of one collision-profile cell: the
// mean, over replications, of PB's channel outcome at one probability.
type collCell struct {
	ReachAtL   float64 `json:"reachAtL"`
	Deliveries float64 `json:"deliveries"`
	Collisions float64 `json:"collisions"`
	// Rate is the mean per-run fraction of reception opportunities lost
	// to collisions.
	Rate float64 `json:"rate"`
}

func (c *collCell) add(res *sim.Result, levels optimize.Constraints) {
	c.ReachAtL += res.Timeline.ReachabilityAtPhase(levels.Latency)
	c.Deliveries += float64(res.Delivered)
	c.Collisions += float64(res.LostToCollision)
	if n := res.Delivered + res.LostToCollision; n > 0 {
		c.Rate += float64(res.LostToCollision) / float64(n)
	}
}

func (c *collCell) div(n float64) {
	c.ReachAtL /= n
	c.Deliveries /= n
	c.Collisions /= n
	c.Rate /= n
}

// collisionStudy explains the bell curves mechanistically: at one
// density it sweeps the broadcast probability and measures, in the
// simulator, the fraction of reception opportunities destroyed by
// collisions alongside the achieved reachability. It is one cell per
// grid probability; every probability sees the same deployments.
func collisionStudy(pre Preset, rho float64) (study, error) {
	if err := checkRuns("collisions", pre.Runs); err != nil {
		return nil, err
	}
	pool := newPool()
	cells := make([]engine.Job, len(pre.Grid))
	for i, p := range pre.Grid {
		cfg := pre.SimConfig(rho)
		cfg.Protocol = protocol.Probability{P: p}
		cells[i] = cellJob[collCell](keyedCell("collision-cell",
			fmt.Sprintf("collisions(p=%g,rho=%g)", p, rho),
			cfg, pre.Runs, pre.Constraints.Latency, pool))
	}
	return cellStudy[collCell]{cells, func(aggs []collCell) (*FigureResult, error) {
		t := Table{Title: fmt.Sprintf("channel outcome vs p (mean of %d runs)", pre.Runs)}
		t.Header = []string{"p", "reach@L", "deliveries", "collisions", "collision rate"}
		var rates, reach []float64
		for i, p := range pre.Grid {
			c := aggs[i]
			rates = append(rates, c.Rate)
			reach = append(reach, c.ReachAtL)
			t.Add(fmt.Sprintf("%.2f", p), fmtF(c.ReachAtL), fmtF1(c.Deliveries),
				fmtF1(c.Collisions), fmtF(c.Rate))
		}
		return &FigureResult{ID: "collisions",
			Title:  fmt.Sprintf("Collision profile of PB_CAM at rho=%g", rho),
			Series: map[string][]float64{"collisionRate": rates, "reach": reach},
			Tables: []Table{t},
			Notes: []string{
				"reachability bells over p because the collision rate rises monotonically while the transmission count grows"}}, nil
	}}, nil
}

// slotStudy studies the backoff window: the paper fixes s = 3 slots
// per phase; this ablation sweeps s in the analytical model and reports
// the optimal probability and achievable reachability for each, at one
// density. It draws on one single-density analytic surface per slot
// count.
func slotStudy(rho float64, slots []int, grid []float64, c optimize.Constraints) (study, error) {
	pres := make([]Preset, len(slots))
	for i, s := range slots {
		pres[i] = Preset{P: 5, S: s, Rhos: []float64{rho}, Grid: grid, Constraints: c}
	}
	return onSurfaces(false, func(surfs []*Surface) (*FigureResult, error) {
		f := &FigureResult{ID: "slots",
			Title:  fmt.Sprintf("Backoff slots per phase (analytic, rho=%g)", rho),
			Series: map[string][]float64{}}
		t := Table{Title: "optimal operating point vs slots per phase"}
		t.Header = []string{"s", "optimal p", "reach@L", "latency-to-target @ opt"}

		var optPs, reachs []float64
		for i, s := range slots {
			pts := surfs[i].Points[0]
			o, ok := optimize.MaxReachAtLatency(pts)
			if !ok {
				return nil, fmt.Errorf("experiments: no optimum for s=%d", s)
			}
			// Latency at the same operating point.
			lat := pts[o.Index].Latency
			t.Add(fmt.Sprintf("%d", s), fmt.Sprintf("%.2f", o.P), fmtF(o.Value), fmtF(lat))
			optPs = append(optPs, o.P)
			reachs = append(reachs, o.Value)
		}
		f.Series["optimalP"] = optPs
		f.Series["optimalReach"] = reachs
		f.Tables = []Table{t}
		f.Notes = append(f.Notes,
			"more slots thin out per-slot contention, so the optimal p rises with s while the achievable reachability improves with diminishing returns")
		return f, nil
	}, pres...), nil
}

// fieldStudy fixes the density and grows the field radius P,
// reporting how far and how fast the broadcast travels: the paper's
// O(P·r) latency intuition, quantified on the collision-aware model.
// It draws on one single-point analytic surface per field radius, each
// over N = ρP² nodes.
func fieldStudy(rho float64, fields []int, p float64, c optimize.Constraints) (study, error) {
	pres := make([]Preset, len(fields))
	for i, pp := range fields {
		pres[i] = Preset{P: pp, S: 3, Rhos: []float64{rho}, Grid: []float64{p},
			Constraints: c, MaxPhases: 4 * pp}
	}
	return onSurfaces(false, func(surfs []*Surface) (*FigureResult, error) {
		f := &FigureResult{ID: "field",
			Title:  fmt.Sprintf("Field-radius scaling (analytic, rho=%g, p=%g)", rho, p),
			Series: map[string][]float64{}}
		t := Table{Title: "reach and latency vs field radius P"}
		t.Header = []string{"P", "N", "final reach", "latency to target", "broadcasts to target"}

		var lats []float64
		for i, pp := range fields {
			pt := surfs[i].Points[0][0]
			latS, bcS := "-", "-"
			if !math.IsNaN(pt.Latency) {
				latS = fmt.Sprintf("%.2f", pt.Latency)
			}
			if !math.IsNaN(pt.Broadcasts) {
				bcS = fmt.Sprintf("%.1f", pt.Broadcasts)
			}
			t.Add(fmt.Sprintf("%d", pp), fmt.Sprintf("%.0f", rho*float64(pp)*float64(pp)),
				fmtF(pt.Final), latS, bcS)
			lats = append(lats, pt.Latency)
		}
		f.Series["latency"] = lats
		f.Tables = []Table{t}
		f.Notes = append(f.Notes,
			"latency grows linearly in the field radius: the collision-aware wavefront still advances O(1) rings per phase at a well-chosen p")
		return f, nil
	}, pres...), nil
}

package experiments

import (
	"fmt"

	"sensornet/internal/engine"
	"sensornet/internal/protocol"
)

// schemeStudy benchmarks every broadcast scheme in the repository on
// the same deployments: the paper's two (flooding, PB_CAM with the
// law-tuned probability) plus the rest of the Williams taxonomy and the
// two adaptive schemes, one table per density. It is one CAM cell per
// (density, scheme), density-major. Every scheme at a density sees the
// same deployments.
func schemeStudy(pre Preset, rhos []float64) (study, error) {
	if err := checkRuns("schemes", pre.Runs); err != nil {
		return nil, err
	}
	law, err := calibrateLaw(pre)
	if err != nil {
		return nil, err
	}
	schemes := func(rho float64) []protocol.Protocol {
		return []protocol.Protocol{
			protocol.Flooding{},
			protocol.Probability{P: law.P(rho)},
			protocol.Counter{Threshold: 3},
			protocol.Distance{MinDist: 0.4},
			protocol.Area{MinExtra: 0.4, R: 1},
			protocol.DegreeAdaptive{C: law.C},
			protocol.Gossip{P: law.P(rho), K: 2},
		}
	}
	pool := newPool()
	var cells []engine.Job
	for _, rho := range rhos {
		for _, scheme := range schemes(rho) {
			cfg := pre.SimConfig(rho)
			cfg.Protocol = scheme
			cells = append(cells, cellJob[schemeCell](keyedCell("scheme-cell",
				fmt.Sprintf("scheme(%s,rho=%g)", scheme.Name(), rho),
				cfg, pre.Runs, pre.Constraints.Latency, pool)))
		}
	}
	return cellStudy[schemeCell]{cells, func(aggs []schemeCell) (*FigureResult, error) {
		f := &FigureResult{ID: "schemes",
			Title:  "Broadcast scheme comparison under CAM",
			Series: map[string][]float64{"lawC": {law.C}}}
		for _, rho := range rhos {
			t := Table{Title: fmt.Sprintf("rho = %g (mean of %d runs)", rho, pre.Runs)}
			t.Header = []string{"scheme", "final reach", "reach@L", "broadcasts", "success rate"}
			for _, scheme := range schemes(rho) {
				c := aggs[0]
				aggs = aggs[1:]
				t.Add(scheme.Name(), fmtF(c.Coverage), fmtF(c.ReachAtL),
					fmtF1(c.Broadcasts), fmtF(c.SuccessRate))
			}
			f.Tables = append(f.Tables, t)
		}
		f.Notes = append(f.Notes,
			fmt.Sprintf("PB probability and the degree-adaptive constant come from the calibrated law p* = %.1f/rho", law.C),
			"the adaptive schemes need no global density knowledge yet track the tuned PB operating point")
		return f, nil
	}}, nil
}

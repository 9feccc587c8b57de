package experiments

import (
	"fmt"

	"sensornet/internal/analytic"
	"sensornet/internal/metrics"
)

// refinedStudy closes the loop the paper's conclusion proposes: measure
// what reliable broadcasts really cost (internal/reliable), fit the
// density-dependent cost functions t_f(ρ), e_f(ρ), and plug them back
// into a collision-free model. The experiment contrasts three
// predictions of network-wide reliable flooding: the naive CFM (unit
// costs), the refined CFM (fitted costs), and — as the honest yardstick
// of how much reliability costs — the measured per-broadcast figures.
// It is one ACK cell per density, over at least two deployments.
func refinedStudy(pre Preset, seeds int) (study, error) {
	return cellStudy[ackCell]{ackCells("refinedcfm", pre, max(seeds, 2), false), func(aggs []ackCell) (*FigureResult, error) {
		f := &FigureResult{ID: "refinedcfm",
			Title:  "Refined CFM: density-priced collision-free analysis (paper §6)",
			Series: map[string][]float64{}}

		// Step 1: the measured reliable-broadcast costs per density.
		var times, energies []float64
		for _, c := range aggs {
			times = append(times, metrics.Summarize(c.Slots).Mean)
			energies = append(energies, metrics.Summarize(c.Txs).Mean)
		}

		// Step 2: fit the cost model.
		cm, err := analytic.FitCostModel(pre.Rhos, times, energies)
		if err != nil {
			return nil, err
		}

		// Step 3: predictions.
		t := Table{Title: "reliable flooding predictions, naive vs refined CFM"}
		t.Header = []string{"rho", "naive latency (phases)", "refined latency (phases)",
			"naive energy (tx)", "refined energy (e_a units)"}
		var refinedLat []float64
		for _, rho := range pre.Rhos {
			naive := analytic.CFMFlooding(pre.P, rho)
			refined := analytic.CFMFloodingWithCosts(pre.P, pre.S, rho, cm)
			nl, _ := naive.LatencyToReach(0.99)
			rl, _ := refined.LatencyToReach(0.99)
			t.Add(fmt.Sprintf("%g", rho), fmtF1(nl), fmtF1(rl),
				fmtF1(naive.TotalBroadcasts()), fmtF1(refined.TotalBroadcasts()))
			refinedLat = append(refinedLat, rl)
		}
		f.Series["refinedLatency"] = refinedLat
		f.Series["fitTimeAt100"] = []float64{cm.Time(100)}
		f.Series["fitEnergyAt100"] = []float64{cm.Energy(100)}
		f.Tables = []Table{t}
		f.Notes = append(f.Notes,
			fmt.Sprintf("fitted cost functions: t_f(100) = %.0f slots, e_f(100) = %.0f transmissions per reliable broadcast",
				cm.Time(100), cm.Energy(100)),
			"the refined CFM keeps collision-free programming semantics while exposing the density pressure the naive CFM hides")
		return f, nil
	}}, nil
}

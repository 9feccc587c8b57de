package experiments

import (
	"context"
	"fmt"
	"sync"

	"sensornet/internal/channel"
	"sensornet/internal/deploy"
	"sensornet/internal/engine"
	"sensornet/internal/mathx"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
)

// Percolation cross-validates the simulator against an independent
// known constant cited by the paper's related work: probability-based
// broadcast over a *grid* deployment with *collision-free*
// communication is site percolation on the square lattice, whose
// critical probability is ~0.593. The experiment sweeps p, records the
// final reachability of PB over CFM on a grid, and locates the sharp
// transition.
func Percolation(ctx context.Context, eng *engine.Engine, p int, grid []float64,
	runs int, seed int64) (*FigureResult, error) {
	return runStudy(ctx, eng)(percolationStudy(p, grid, runs, seed), nil)
}

// cliPercolation is the percolation study the CLI renders, alone and in
// "all": a radius-18 lattice, 10 runs, p from 0.35 in steps of 0.05.
// The float-accumulated grid ends at 0.85: the step past it lands just
// above 0.9.
func cliPercolation() study {
	var grid []float64
	for p := 0.35; p <= 0.9; p += 0.05 {
		grid = append(grid, p)
	}
	return percolationStudy(18, grid, 10, 1)
}

// percolationStudy is one cell per probability on a radius-p lattice
// (at least 4) that every cell shares, with at least one run per cell.
// Replication seeds derive from the study seed, the probability and the
// replication index.
func percolationStudy(p int, grid []float64, runs int, seed int64) study {
	p, runs = max(p, 4), max(runs, 1)
	lattice := sync.OnceValues(func() (*deploy.Deployment, error) {
		// Lattice placement draws nothing from its stream.
		return deploy.Generate(deploy.Config{P: p, Grid: true},
			seededRand(engine.DeriveSeed(seed, "percolation-lattice")))
	})
	cells := make([]engine.Job, len(grid))
	for i, prob := range grid {
		cfg := sim.Config{
			P: p, S: 1, Rho: 1, // Rho unused with an explicit deployment
			Model:    channel.CFM,
			Protocol: protocol.Probability{P: prob},
			Seed:     seed,
		}
		c := keyedCell("percolation-cell", fmt.Sprintf("percolation(P=%d,p=%.2f)", p, prob),
			cfg, runs, 0, nil)
		c.replicate = func(cfg sim.Config, r int) (sim.Config, error) {
			dep, err := lattice()
			cfg.Deployment = dep
			cfg.Seed = engine.DeriveSeed(cfg.Seed, "percolation", prob, r)
			return cfg, err
		}
		cells[i] = cellJob[schemeCell](c)
	}
	return cellStudy[schemeCell]{cells, func(aggs []schemeCell) (*FigureResult, error) {
		f := &FigureResult{ID: "percolation",
			Title:  "Grid + CFM: the percolation transition of probability-based broadcast",
			Series: map[string][]float64{"p": grid}}
		t := Table{Title: fmt.Sprintf("final reachability on a radius-%d lattice (mean of %d runs)", p, runs)}
		t.Header = []string{"p", "final reach"}
		var reach []float64
		for i, prob := range grid {
			reach = append(reach, aggs[i].Coverage)
			t.Add(fmt.Sprintf("%.2f", prob), fmtF(aggs[i].Coverage))
		}
		f.Series["reach"] = reach
		// Locate the transition: the p at which mean reachability
		// crosses one half.
		if cross, ok := mathx.FirstCrossing(grid, reach, 0.5); ok {
			f.Series["critical"] = []float64{cross}
			f.Notes = append(f.Notes, fmt.Sprintf(
				"reachability crosses 0.5 at p = %.3f; site percolation on the square lattice has p_c = 0.593",
				cross))
		} else {
			f.Series["critical"] = []float64{}
			f.Notes = append(f.Notes, "no transition located on this grid")
		}
		f.Tables = []Table{t}
		return f, nil
	}}
}

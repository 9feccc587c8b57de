// Command analyze evaluates the paper's analytical framework for
// PB_CAM: a single (density, probability) run, or a probability sweep
// with the optimal operating points for all four §4.1 metrics.
//
// Examples:
//
//	analyze -rho 100 -p 0.1            # one analytic run
//	analyze -rho 100 -sweep            # full probability sweep + optima
//	analyze -rho 100 -sweep -carrier   # Appendix A collision model
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"sensornet/internal/core"
	"sensornet/internal/export"
	"sensornet/internal/mathx"
	"sensornet/internal/optimize"
)

func main() {
	var (
		p       = flag.Int("P", 5, "field radius in transmission radii (rings)")
		s       = flag.Int("S", 3, "slots per time phase")
		rho     = flag.Float64("rho", 60, "density: average neighbours per node")
		prob    = flag.Float64("p", 0.1, "broadcast probability")
		sweep   = flag.Bool("sweep", false, "sweep p over the paper grid and report optima")
		carrier = flag.Bool("carrier", false, "use the Appendix A carrier-sensing collision model")
		latency = flag.Float64("latency", 5, "latency constraint in phases (metric 1)")
		reach   = flag.Float64("reach", 0.72, "reachability constraint (metrics 3 and 4)")
		budget  = flag.Float64("budget", 35, "broadcast budget (metric 5)")
		step    = flag.Float64("step", 0.01, "sweep grid step")
		csvPath = flag.String("csv", "", "write the run timeline as CSV to this file")
	)
	flag.Parse()

	m := core.NetworkModel{P: *p, S: *s, Rho: *rho, R: 1, Comm: core.CAM}
	if *carrier {
		m.Comm = core.CAMCarrierSense
	}
	c := core.Constraints{Latency: *latency, Reach: *reach, Budget: *budget}

	if *sweep {
		if err := runSweep(m, c, *step); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		return
	}
	if err := runSingle(m, c, *prob, *csvPath); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func runSingle(m core.NetworkModel, c core.Constraints, p float64, csvPath string) error {
	tl, err := m.Analyze(p)
	if err != nil {
		return err
	}
	if csvPath != "" {
		fh, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		err = export.TimelineCSV(fh, tl)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	fmt.Printf("model: %v, P=%d, s=%d, rho=%g (N=%.0f), p=%g\n\n",
		m.Comm, m.P, m.S, m.Rho, m.N(), p)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\treachability\tbroadcasts")
	for i := range tl.Phases {
		fmt.Fprintf(tw, "%.0f\t%.4f\t%.1f\n", tl.Phases[i], tl.CumReach[i], tl.CumBroadcasts[i])
	}
	tw.Flush()
	fmt.Println()
	fmt.Printf("reachability @ %g phases:    %.4f\n", c.Latency, tl.ReachabilityAtPhase(c.Latency))
	if l, ok := tl.LatencyToReach(c.Reach); ok {
		fmt.Printf("latency to %.0f%% reach:       %.2f phases\n", c.Reach*100, l)
	} else {
		fmt.Printf("latency to %.0f%% reach:       unreachable\n", c.Reach*100)
	}
	if b, ok := tl.BroadcastsToReach(c.Reach); ok {
		fmt.Printf("broadcasts to %.0f%% reach:    %.1f\n", c.Reach*100, b)
	} else {
		fmt.Printf("broadcasts to %.0f%% reach:    unreachable\n", c.Reach*100)
	}
	fmt.Printf("reachability @ %g broadcasts: %.4f\n", c.Budget, tl.ReachabilityAtBudget(c.Budget))
	return nil
}

func runSweep(m core.NetworkModel, c core.Constraints, step float64) error {
	grid := mathx.Range(step, 1, step)
	pts, err := m.Sweep(c, grid)
	if err != nil {
		return err
	}
	fmt.Printf("model: %v, P=%d, s=%d, rho=%g (N=%.0f)\n\n", m.Comm, m.P, m.S, m.Rho, m.N())
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "p\treach@%gph\tlatency@%.0f%%\tbroadcasts@%.0f%%\treach@%gbc\n",
		c.Latency, c.Reach*100, c.Reach*100, c.Budget)
	for _, pt := range pts {
		fmt.Fprintf(tw, "%.2f\t%s\t%s\t%s\t%s\n", pt.P,
			fm(pt.ReachAtL), fm(pt.Latency), fm(pt.Broadcasts), fm(pt.ReachAtBudget))
	}
	tw.Flush()
	fmt.Println()
	// core.Objective values index the selector registry, so the four
	// optima are picked from the one sweep above.
	sels := optimize.Selectors()
	for _, obj := range []core.Objective{core.MaxReachability, core.MinLatency,
		core.MinEnergy, core.MaxReachabilityAtBudget} {
		o, ok := sels[obj].Pick(pts)
		if !ok {
			fmt.Printf("%-28v infeasible\n", obj)
			continue
		}
		fmt.Printf("%-28v p*=%.2f value=%.3f\n", obj, o.P, o.Value)
	}
	return nil
}

func fm(v float64) string {
	if !mathx.IsFinite(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

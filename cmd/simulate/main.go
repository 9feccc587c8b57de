// Command simulate runs the network simulator (the repository's
// GloMoSim substitute) for one configuration: a broadcast scheme over a
// uniform disk deployment under CFM, CAM, or CAM with carrier sensing.
//
// Examples:
//
//	simulate -rho 100 -p 0.1 -runs 30
//	simulate -rho 100 -protocol flooding -model cfm
//	simulate -rho 60 -p 0.2 -async          # unaligned phase grids
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"

	"sensornet/internal/channel"
	"sensornet/internal/metrics"
	"sensornet/internal/protocol"
	"sensornet/internal/sim"
	"sensornet/internal/trace"
)

func main() {
	var (
		p       = flag.Int("P", 5, "field radius in transmission radii")
		s       = flag.Int("S", 3, "slots per time phase")
		rho     = flag.Float64("rho", 60, "density: average neighbours per node")
		prob    = flag.Float64("p", 0.1, "broadcast probability (pb protocol)")
		proto   = flag.String("protocol", "pb", "broadcast scheme: pb|flooding|counter|distance")
		thresh  = flag.Int("threshold", 3, "counter scheme suppression threshold")
		minDist = flag.Float64("mindist", 0.5, "distance scheme suppression distance")
		model   = flag.String("model", "cam", "communication model: cfm|cam|cam+cs")
		runs    = flag.Int("runs", 10, "independent random runs")
		seed    = flag.Int64("seed", 1, "base random seed")
		async   = flag.Bool("async", false, "per-node random phase offsets")
		latency = flag.Float64("latency", 5, "latency constraint in phases")
		reach   = flag.Float64("reach", 0.63, "reachability constraint")
		budget  = flag.Float64("budget", 80, "broadcast budget")
		showTr  = flag.Bool("trace", false, "collect and print the per-phase collision profile (first run)")
	)
	flag.Parse()

	cfg := sim.Config{P: *p, S: *s, Rho: *rho, Seed: *seed, Async: *async}
	switch strings.ToLower(*model) {
	case "cfm":
		cfg.Model = channel.CFM
	case "cam":
		cfg.Model = channel.CAM
	case "cam+cs", "cs", "carrier":
		cfg.Model = channel.CAMCarrierSense
	default:
		fmt.Fprintf(os.Stderr, "simulate: unknown model %q\n", *model)
		os.Exit(2)
	}
	switch strings.ToLower(*proto) {
	case "pb":
		if !(*prob >= 0 && *prob <= 1) {
			fmt.Fprintf(os.Stderr, "simulate: -p %g outside [0, 1]\n", *prob)
			os.Exit(2)
		}
		cfg.Protocol = protocol.Probability{P: *prob}
	case "flooding":
		cfg.Protocol = protocol.Flooding{}
	case "counter":
		cfg.Protocol = protocol.Counter{Threshold: *thresh}
	case "distance":
		cfg.Protocol = protocol.Distance{MinDist: *minDist}
	default:
		fmt.Fprintf(os.Stderr, "simulate: unknown protocol %q\n", *proto)
		os.Exit(2)
	}

	// Ctrl-C abandons the replications not yet started.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	agg, err := sim.RunMany(ctx, cfg, *runs, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}

	fmt.Printf("%s over %v, P=%d, s=%d, rho=%g, %d runs (async=%v)\n\n",
		cfg.Protocol.Name(), cfg.Model, *p, *s, *rho, *runs, *async)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmean\tstddev\t95% CI\tfeasible")
	report := func(name string, xs []float64) {
		sm := metrics.Summarize(xs)
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t±%.3f\t%.0f%%\n",
			name, sm.Mean, sm.StdDev, sm.CI95, metrics.FeasibleFraction(xs)*100)
	}
	report(fmt.Sprintf("reachability @ %g phases", *latency), agg.ReachabilityAtPhase(*latency))
	report(fmt.Sprintf("latency to %.0f%% (phases)", *reach*100), agg.LatencyToReach(*reach))
	report(fmt.Sprintf("broadcasts to %.0f%%", *reach*100), agg.BroadcastsToReach(*reach))
	report(fmt.Sprintf("reachability @ %g broadcasts", *budget), agg.ReachabilityAtBudget(*budget))
	report("broadcast success rate", agg.SuccessRates())
	var finals, totals []float64
	for _, r := range agg.Runs {
		finals = append(finals, r.Timeline.FinalReachability())
		totals = append(totals, float64(r.Broadcasts))
	}
	report("final reachability", finals)
	report("total broadcasts", totals)
	tw.Flush()

	fmt.Println("\nmean timeline:")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\treachability\tbroadcasts")
	for i := range agg.Mean.Phases {
		fmt.Fprintf(tw, "%.0f\t%.4f\t%.1f\n",
			agg.Mean.Phases[i], agg.Mean.CumReach[i], agg.Mean.CumBroadcasts[i])
	}
	tw.Flush()

	if *showTr {
		var col trace.Collector
		cfg.Tracer = &col
		if _, err := sim.Run(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		fmt.Println("\ncollision profile (single traced run):")
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "phase\ttx\tdeliveries\tcollisions\tfirst-rx\tcancels")
		for i, ps := range col.Phases() {
			if ps == (trace.PhaseStats{}) {
				continue
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\n", i,
				ps.Transmissions, ps.Deliveries, ps.Collisions,
				ps.FirstReceives, ps.Cancels)
		}
		tw.Flush()
		fmt.Printf("\noverall collision rate: %.3f\n", col.CollisionRate())
	}
}

package optimize

import "math"

// SchemeMetrics summarises one broadcast scheme's behaviour at a fixed
// (channel model, density) cell: the comparison unit of the shootout
// campaign. Unlike Point, which sweeps one protocol over a probability
// grid, SchemeMetrics compares distinct suppression schemes head to
// head.
type SchemeMetrics struct {
	// Coverage is terminal reachability; ReachAtL the reachability
	// within the latency constraint.
	Coverage float64
	ReachAtL float64
	// Broadcasts is the mean transmission count (the energy proxy).
	Broadcasts float64
	// SuccessRate is the mean per-transmission neighbour decode
	// fraction.
	SuccessRate float64
}

// Efficiency is coverage bought per broadcast — the reach/energy
// trade-off in one number. Zero-broadcast cells (a scheme that never
// transmits) score zero rather than Inf: covering nobody cheaply is
// not efficient.
func (m SchemeMetrics) Efficiency() float64 {
	if m.Broadcasts <= 0 || math.IsNaN(m.Coverage) {
		return 0
	}
	return m.Coverage / m.Broadcasts
}

// SchemeSelector is a named objective over competing schemes: the
// registry entry behind the shootout's "best scheme" columns.
type SchemeSelector struct {
	// Name addresses the selector ("coverage", "reach", "energy",
	// "efficiency").
	Name string
	// Description states the objective.
	Description string
	// Better reports whether a strictly beats b under the objective.
	// Ties are NOT better: callers iterating in scheme order keep the
	// first of tied schemes, making the winner deterministic.
	Better func(a, b SchemeMetrics) bool
}

// SchemeSelectors lists the shootout objectives addressable by name.
func SchemeSelectors() []SchemeSelector {
	return []SchemeSelector{
		{"coverage", "maximise terminal reachability",
			func(a, b SchemeMetrics) bool { return a.Coverage > b.Coverage }},
		{"reach", "maximise reachability within the latency budget",
			func(a, b SchemeMetrics) bool { return a.ReachAtL > b.ReachAtL }},
		{"energy", "minimise broadcasts (ignoring what they bought)",
			func(a, b SchemeMetrics) bool { return a.Broadcasts < b.Broadcasts }},
		{"efficiency", "maximise coverage per broadcast",
			func(a, b SchemeMetrics) bool { return a.Efficiency() > b.Efficiency() }},
	}
}

// BestScheme returns the index of the winning entry under the
// selector, first-wins on ties. It returns -1 for an empty slice.
func BestScheme(sel SchemeSelector, ms []SchemeMetrics) int {
	best := -1
	for i, m := range ms {
		if best < 0 || sel.Better(m, ms[best]) {
			best = i
		}
	}
	return best
}

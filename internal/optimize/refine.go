package optimize

import "math"

// invPhi is the inverse golden ratio, the contraction factor of the
// golden-section search.
var invPhi = (math.Sqrt(5) - 1) / 2

// RefineMax sharpens a grid optimum of a unimodal objective by
// golden-section search on [lo, hi], evaluating f at most maxEvals
// times (beyond the two initial probes). It returns the refined
// argument and value. The four §4.1 metrics are unimodal in p on the
// regions around their optima, so a coarse sweep plus RefineMax reaches
// fine precision at a fraction of a dense grid's cost.
func RefineMax(f func(float64) float64, lo, hi float64, maxEvals int) (x, v float64) {
	if hi < lo {
		lo, hi = hi, lo
	}
	if maxEvals < 2 {
		maxEvals = 2
	}
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	evals := 2
	for evals < maxEvals && (b-a) > 1e-9 {
		if fc >= fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
		evals++
	}
	if fc >= fd {
		return c, fc
	}
	return d, fd
}

// RefineMin is RefineMax on the negated objective.
func RefineMin(f func(float64) float64, lo, hi float64, maxEvals int) (x, v float64) {
	x, neg := RefineMax(func(t float64) float64 { return -f(t) }, lo, hi, maxEvals)
	return x, -neg
}

// RefineOptimum takes a completed sweep and a located grid optimum and
// refines it over the bracketing grid interval, re-evaluating the
// model through eval (which must return the metric being optimised,
// NaN for infeasible points). maximise selects the direction. opt.Index
// locates the grid point in pts; an index outside pts returns opt
// unchanged.
func RefineOptimum(pts []Point, opt Optimum, eval func(p float64) float64, maximise bool, maxEvals int) Optimum {
	if len(pts) < 2 {
		return opt
	}
	// The bracketing neighbours of the grid optimum.
	idx := opt.Index
	if idx < 0 || idx >= len(pts) {
		return opt
	}
	lo, hi := opt.P, opt.P
	if idx > 0 {
		lo = pts[idx-1].P
	}
	if idx < len(pts)-1 {
		hi = pts[idx+1].P
	}
	safe := func(p float64) float64 {
		v := eval(p)
		if math.IsNaN(v) {
			if maximise {
				return math.Inf(-1)
			}
			return math.Inf(1)
		}
		return v
	}
	var x, v float64
	if maximise {
		x, v = RefineMax(safe, lo, hi, maxEvals)
	} else {
		x, v = RefineMin(safe, lo, hi, maxEvals)
	}
	if math.IsInf(v, 0) {
		return opt
	}
	better := (maximise && v > opt.Value) || (!maximise && v < opt.Value)
	if !better {
		return opt
	}
	return Optimum{P: x, Value: v, Index: idx}
}

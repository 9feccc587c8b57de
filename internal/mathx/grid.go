package mathx

import "math"

// Range returns the arithmetic sequence start, start+step, ... not
// exceeding stop (inclusive up to floating-point slack). It mirrors the
// parameter grids of the paper, e.g. Range(0.01, 1, 0.01) for the
// analytic probability sweep. It returns nil when an argument is NaN
// or infinite, when step <= 0 or stop < start, and when the sequence
// would hold more than math.MaxInt32 points.
func Range(start, stop, step float64) []float64 {
	if !IsFinite(start) || !IsFinite(stop) || !IsFinite(step) || step <= 0 || stop < start {
		return nil
	}
	last := math.Floor((stop-start)/step + 1e-9)
	if last >= math.MaxInt32 {
		return nil
	}
	n := int(last)
	out := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		out = append(out, start+float64(i)*step)
	}
	return out
}

// ArgMax returns the index and value of the maximum of ys. NaN entries
// are skipped. The boolean result is false when every entry is NaN or the
// slice is empty.
func ArgMax(ys []float64) (int, float64, bool) {
	best, bestV, found := -1, math.Inf(-1), false
	for i, v := range ys {
		if math.IsNaN(v) {
			continue
		}
		if !found || v > bestV {
			best, bestV, found = i, v, true
		}
	}
	return best, bestV, found
}

// ArgMin returns the index and value of the minimum of ys. NaN entries
// are skipped, which lets sweeps mark infeasible parameter points as NaN.
func ArgMin(ys []float64) (int, float64, bool) {
	best, bestV, found := -1, math.Inf(1), false
	for i, v := range ys {
		if math.IsNaN(v) {
			continue
		}
		if !found || v < bestV {
			best, bestV, found = i, v, true
		}
	}
	return best, bestV, found
}

// IsFinite reports whether v is neither NaN nor infinite.
func IsFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// LinearFit returns the least-squares line y = slope·x + intercept
// through the points (xs[i], ys[i]). It needs at least two distinct x
// values; otherwise ok is false.
func LinearFit(xs, ys []float64) (slope, intercept float64, ok bool) {
	n := len(xs)
	if n < 2 || n != len(ys) {
		return 0, 0, false
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return 0, 0, false
	}
	slope = (float64(n)*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / float64(n)
	return slope, intercept, true
}

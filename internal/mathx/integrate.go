package mathx

import "math"

// Func is a scalar function of one real variable.
type Func func(x float64) float64

// SimpsonN integrates f over [a, b] with the composite Simpson rule using
// n subintervals (n is rounded up to the next even number, minimum 2).
// It is the workhorse for the ring-recursion integrals of Eq. (4), whose
// integrands are smooth on each ring, so a fixed-resolution rule with a
// few hundred points is both fast and accurate.
func SimpsonN(f Func, a, b float64, n int) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == b {
		return 0
	}
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

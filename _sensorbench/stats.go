package main

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// minBeyond is how many samples must lie above a tail percentile before
// the percentile is reported.
const minBeyond = 10

// metric is one reported figure. N is the sample count behind a value
// summarised from samples (0 for counts and ratios); Missing marks a
// value that could not be measured, such as a tail percentile without
// enough samples beyond it.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	N       int
	Missing bool
}

// metricSet is an ordered set of metrics.
type metricSet struct{ list []metric }

func (m *metricSet) add(name, unit string, v float64, n int) {
	m.list = append(m.list, metric{Name: name, Unit: unit, Value: v, N: n})
}

// addQuantile adds the q-quantile of xs (any order), or a Missing entry
// when quantile withholds it.
func (m *metricSet) addQuantile(name, unit string, xs []float64, q float64) {
	v, ok := quantile(sorted(xs), q)
	m.list = append(m.list, metric{Name: name, Unit: unit, Value: v, N: len(xs), Missing: !ok})
}

// get returns the named metric.
func (m *metricSet) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// validate rejects duplicate or malformed names and non-finite values.
func (m *metricSet) validate() error {
	seen := map[string]bool{}
	for _, x := range m.list {
		if !metricName.MatchString(x.Name) || len(x.Name) > 64 {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64 characters", x.Name)
		}
		if seen[x.Name] {
			return fmt.Errorf("metric %q reported twice", x.Name)
		}
		seen[x.Name] = true
		if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			return fmt.Errorf("metric %q is not finite", x.Name)
		}
	}
	return nil
}

// print writes the set as an aligned table: name, value, unit, and the
// sample count where there is one.
func (m *metricSet) print(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, x := range m.list {
		val := fmt.Sprintf("%.6g", x.Value)
		if x.Missing {
			val = "n/a"
		}
		n := ""
		if x.N > 0 {
			n = fmt.Sprintf("n=%d", x.N)
		}
		fmt.Fprintf(w, "%-34s %14s %-6s %s\n", x.Name, val, x.Unit, n)
	}
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

// quantile returns the nearest-rank q-quantile of ascending samples and
// whether it may be reported: the median whenever there is a sample, a
// higher percentile only with at least minBeyond samples above its rank.
func quantile(asc []float64, q float64) (float64, bool) {
	n := len(asc)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if q > 0.5 && n-1-rank < minBeyond {
		return asc[rank], false
	}
	return asc[rank], true
}

// median is the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

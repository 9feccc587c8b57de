package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// A stalled call must delay the calls queued behind it in their
// latency, timed from the due time, while the generator's own lateness
// stays small.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 20 * time.Millisecond
	shots, _ := openLoop(1000, 30, 1, func(i int) bool {
		if i == 5 {
			time.Sleep(stall)
		}
		return true
	})
	next := shots[6]
	if next.Latency() < stall/2 {
		t.Errorf("call after the stall: latency %v, want at least %v counted from its due time", next.Latency(), stall/2)
	}
	if next.Queued() < stall/2 {
		t.Errorf("call after the stall queued %v, want at least %v", next.Queued(), stall/2)
	}
	for i, s := range shots {
		if s.Late() > 5*time.Millisecond {
			t.Errorf("call %d: generator lateness %v, want well under the stall", i, s.Late())
		}
		if s.Latency() < 0 || s.Done < s.Sent || s.Sent < s.Dispatched {
			t.Errorf("call %d: times out of order: %+v", i, s)
		}
	}
}

// A percentile above the median is reported only with at least ten
// samples beyond it; the median whenever there is a sample.
func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{99, 0.9, false}, {100, 0.9, true},
		{1, 0.5, true}, {0, 0.5, false},
	} {
		if _, ok := quantile(ramp(c.n), c.q); ok != c.want {
			t.Errorf("quantile(n=%d, q=%g) reported=%v, want %v", c.n, c.q, ok, c.want)
		}
	}
	var m metricSet
	m.addQuantile("x_ms", "ms", ramp(500), 0.99)
	if got, _ := m.get("x_ms"); !got.Missing || got.N != 500 {
		t.Errorf("p99 of 500 samples: %+v, want Missing with n=500", got)
	}
}

// Every declared metric name has the reportable shape, and
// BENCHMARK.json declares exactly the metrics the program reports.
func TestMetricNamesMatchDeclaration(t *testing.T) {
	for _, list := range [][]spec{endToEnd, perLayer} {
		for _, s := range list {
			if !metricName.MatchString(s.name) || len(s.name) > 64 {
				t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+", s.name)
			}
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit string }
		code []spec
	}{{decl.EndToEnd, endToEnd}, {decl.PerLayer, perLayer}} {
		var got, want []spec
		for _, d := range c.decl {
			got = append(got, spec{d.Name, d.Unit})
		}
		want = append(want, c.code...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json declares %v, the program reports %v", got, want)
		}
	}
}

// The seed changes the inputs — the shootout preset seed and the serve
// mix — but never the set of metric names a run reports.
func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	if shootPreset(1).Seed == shootPreset(2).Seed {
		t.Error("seeds 1 and 2 pick the same shootout preset seed")
	}
	var targets []*target
	for i := 0; i < 16; i++ {
		targets = append(targets, &target{path: string(rune('a' + i))})
	}
	paths := func(seed int64) []string {
		var out []string
		for _, p := range newMixer(seed, targets).draw(200) {
			out = append(out, p.t.path)
		}
		return out
	}
	if reflect.DeepEqual(paths(1), paths(2)) {
		t.Error("seeds 1 and 2 draw the same serve mix")
	}
	if !reflect.DeepEqual(paths(3), paths(3)) {
		t.Error("one seed drew two different serve mixes")
	}

	// Two outcomes measuring different layers still report the same
	// names: the declared ones.
	names := func(o *outcome, traced bool) []string {
		line, err := resultLine(o, traced)
		if err != nil {
			t.Fatal(err)
		}
		var r struct{ Metrics map[string]any }
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		var out []string
		for k := range r.Metrics {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	a, b := &outcome{attempted: 1}, &outcome{attempted: 1}
	for _, s := range endToEnd {
		a.e2e.add(s.name, s.unit, 1, 1)
		b.e2e.add(s.name, s.unit, 2, 1)
	}
	a.layers.add("deploy.generate_s", "s", 1, 1)
	b.layers.add("serve.warm_s", "s", 1, 1)
	if !reflect.DeepEqual(names(a, false), names(b, false)) || !reflect.DeepEqual(names(a, true), names(b, true)) {
		t.Error("two outcomes report different metric names")
	}
	if len(names(a, true)) != len(perLayer) {
		t.Errorf("a traced run reports %d metrics, want %d", len(names(a, true)), len(perLayer))
	}
}

// The shootout's op time averages each cell's median over the campaigns,
// so one slow run of a cell moves it by a share, not by a jump between
// cells; alike operations give their plain median.
func TestOpMs(t *testing.T) {
	cs := []campaign{
		{cells: map[string]float64{"small": 10, "large": 100}, scale: 1},
		{cells: map[string]float64{"small": 30, "large": 100}, scale: 1},
		{cells: map[string]float64{"small": 11, "large": 104}, scale: 1},
	}
	if got, n := opMs(cs); got != (11+100)/2.0 || n != 6 {
		t.Errorf("opMs over cells = %v (n=%d), want 55.5 (n=6)", got, n)
	}
	if got, n := opMs([]campaign{{ops: []float64{3, 1}, scale: 1}, {ops: []float64{1}, scale: 2}}); got != 2 || n != 3 {
		t.Errorf("opMs over alike operations = %v (n=%d), want 2 (n=3)", got, n)
	}
}

// A campaign's scale brings the mean of the kernel times next to it to
// refNominal.
func TestHostSpeedScale(t *testing.T) {
	nominal := refNominal.Seconds()
	h := &hostSpeed{refs: []float64{9 * nominal, 1.5 * nominal, 2.5 * nominal}}
	if got := h.scale(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("scale = %v, want 0.5", got)
	}
}

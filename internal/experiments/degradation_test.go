package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

func degPreset() Preset {
	pre := QuickSim()
	pre.Runs = 8
	return pre
}

func TestDegradationShape(t *testing.T) {
	pre := degPreset()
	crash := []float64{0, 0.3, 0.6}
	loss := []float64{0, 0.4}
	f, err := Degradation(context.Background(), testEngine(), pre, 20, crash, loss)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "degradation" || len(f.Tables) != 2 {
		t.Fatalf("figure shape: ID %q, %d tables", f.ID, len(f.Tables))
	}
	for _, tab := range f.Tables {
		if len(tab.Rows) != len(crash)*len(loss) {
			t.Fatalf("table %q has %d rows, want %d", tab.Title, len(tab.Rows), len(crash)*len(loss))
		}
		t.Logf("\n%s", tab)
	}
	for name, s := range f.Series {
		if strings.HasPrefix(name, "coverage:") && len(s) != len(crash)*len(loss) {
			t.Fatalf("series %q has %d points", name, len(s))
		}
	}
}

// TestDegradationRejectsBadRates: every (crash, loss) pair goes through
// faults.Config.Validate before any job is built, so a NaN, infinite or
// out-of-range rate fails the job set instead of running cells with
// that fault process silently off.
func TestDegradationRejectsBadRates(t *testing.T) {
	for _, tc := range []struct{ crash, loss []float64 }{
		{[]float64{math.NaN(), 0.2}, nil},
		{nil, []float64{math.NaN()}},
		{[]float64{0.2}, []float64{math.Inf(1)}},
		{[]float64{-0.1}, nil},
	} {
		spec := FigureSpec{Sim: degPreset(), DegRho: 60, CrashRates: tc.crash, LossRates: tc.loss}
		if _, err := FigureJobs("degradation", spec); err == nil {
			t.Errorf("FigureJobs accepted crash rates %v, loss rates %v", tc.crash, tc.loss)
		}
	}
}

// TestDegradationDeterministic: two fresh runs of the study render
// byte-identical tables and series — the fault plans, deployments, and
// replication seeds are all pure functions of the preset.
func TestDegradationDeterministic(t *testing.T) {
	pre := degPreset()
	crash := []float64{0, 0.5}
	loss := []float64{0, 0.3}
	render := func() string {
		f, err := Degradation(context.Background(), testEngine(), pre, 20, crash, loss)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tab := range f.Tables {
			b.WriteString(tab.String())
		}
		for _, name := range []string{"coverage:flooding", "crashRates", "lossRates"} {
			fmt.Fprintf(&b, "%s=%v\n", name, f.Series[name])
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("degradation study is not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestDegradationMonotone: the acceptance property — mean coverage
// never improves as the crash rate or the loss rate rises, for either
// scheme. The coupled fault draws make this hold per-axis on the
// averaged grid.
func TestDegradationMonotone(t *testing.T) {
	pre := degPreset()
	crash := []float64{0, 0.25, 0.5, 0.75}
	loss := []float64{0, 0.25, 0.5}
	f, err := Degradation(context.Background(), testEngine(), pre, 20, crash, loss)
	if err != nil {
		t.Fatal(err)
	}
	for name, cov := range f.Series {
		if !strings.HasPrefix(name, "coverage:") {
			continue
		}
		at := func(ci, li int) float64 { return cov[ci*len(loss)+li] }
		const slack = 1e-9
		for li := range loss {
			for ci := 1; ci < len(crash); ci++ {
				if at(ci, li) > at(ci-1, li)+slack {
					t.Errorf("%s: coverage rose from %.4f to %.4f as crash rate %g -> %g (loss %g)",
						name, at(ci-1, li), at(ci, li), crash[ci-1], crash[ci], loss[li])
				}
			}
		}
		for ci := range crash {
			for li := 1; li < len(loss); li++ {
				if at(ci, li) > at(ci, li-1)+slack {
					t.Errorf("%s: coverage rose from %.4f to %.4f as loss rate %g -> %g (crash %g)",
						name, at(ci, li-1), at(ci, li), loss[li-1], loss[li], crash[ci])
				}
			}
		}
		// And the grid is not flat: the worst corner is strictly worse
		// than the clean corner.
		if !(at(len(crash)-1, len(loss)-1) < at(0, 0)) {
			t.Errorf("%s: faults did not degrade coverage (%.4f vs %.4f)",
				name, at(0, 0), at(len(crash)-1, len(loss)-1))
		}
	}
}

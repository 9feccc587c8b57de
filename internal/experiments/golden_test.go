// Golden content pin: the sha256 of every figure report the experiments
// CLI renders (each -figure ID plus "all", at small presets, with the
// CLI's per-figure parameters) and of every cacheable job set's ordered
// result payloads at the quick presets. Job-identity pins
// (pin_test.go) prove a cache entry is still addressable; these prove
// what it holds and how it renders. testdata/figures.golden is written
// by hand from the failure output, never regenerated to make a change
// pass.
package experiments_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/mathx"
)

// goldenPresets are the small presets the figure reports are pinned
// at: two densities and a coarse grid per surface, two replications.
func goldenPresets() (pa, ps experiments.Preset) {
	pa = experiments.QuickAnalytic()
	pa.Rhos = []float64{20, 100}
	pa.Grid = mathx.Range(0.05, 1, 0.05)
	ps = experiments.QuickSim()
	ps.Rhos = []float64{40, 100}
	ps.Grid = mathx.Range(0.2, 1, 0.2)
	ps.Runs = 2
	return pa, ps
}

// goldenFigures is every -figure ID the CLI accepts, in figure-table
// order.
var goldenFigures = []string{
	"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"fig12", "fig12sim", "cfm", "carrier", "costfn", "percolation",
	"collisions", "slots", "field", "schemes", "hetero", "refinedcfm",
	"joint", "mumode", "degradation", "shootout", "all",
}

// payloadDigest runs a job set and hashes its results' cache payloads
// in job order.
func payloadDigest(ctx context.Context, jobs []engine.Job) (string, error) {
	results, err := engine.New(engine.Config{Workers: 2}).Run(ctx, jobs)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for i, j := range jobs {
		payload, err := engine.EncodeResult(j, results[i].Value)
		if err != nil {
			return "", err
		}
		h.Write(payload)
		h.Write([]byte{0x1e})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func TestFiguresGolden(t *testing.T) {
	ctx := context.Background()
	var lines []string

	if ids := experiments.FigureIDs(); !slices.Equal(ids, goldenFigures) {
		t.Fatalf("figure table lists %v, want %v", ids, goldenFigures)
	}
	pa, ps := goldenPresets()
	spec := experiments.FigureSpec{Analytic: pa, Sim: ps, DegRho: 60}
	eng := engine.New(engine.Config{Workers: 2,
		Cache: engine.NewCache("", experiments.CacheSalt)})
	for _, id := range goldenFigures {
		var b bytes.Buffer
		if _, err := experiments.RunFigures(ctx, eng, spec, &b, id); err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		sum := sha256.Sum256(b.Bytes())
		lines = append(lines, fmt.Sprintf("figure %s sha256:%s", id, hex.EncodeToString(sum[:])))
	}

	qa, qs := experiments.QuickAnalytic(), experiments.QuickSim()
	deg, err := experiments.FigureJobs("degradation", experiments.FigureSpec{Sim: qs, DegRho: 60})
	if err != nil {
		t.Fatal(err)
	}
	shoot, err := experiments.ShootoutJobs(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name string
		jobs []engine.Job
	}{
		{"analytic-surface", experiments.SurfaceJobs(qa, false, 1)},
		{"sim-surface", experiments.SurfaceJobs(qs, true, 1)},
		{"degradation", deg},
		{"shootout", shoot},
	} {
		d, err := payloadDigest(ctx, set.jobs)
		if err != nil {
			t.Fatalf("jobs %s: %v", set.name, err)
		}
		lines = append(lines, fmt.Sprintf("jobs %s sha256:%s", set.name, d))
	}

	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatalf("%v; the current pins are:\n%s", err, got)
	}
	if got != string(want) {
		gl, wl := lines, strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}

package experiments

import (
	"math"
	"testing"

	"sensornet/internal/mathx"
)

func TestPercolationTransitionNearCritical(t *testing.T) {
	if testing.Short() {
		t.Skip("percolation sweep in -short mode")
	}
	grid := mathx.Range(0.35, 0.9, 0.05)
	f, err := studyFigure(percolationStudy(18, grid, 6, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	crit := f.Series["critical"]
	if len(crit) != 1 {
		t.Fatalf("no transition found: %v", f.Series["reach"])
	}
	// Site percolation p_c = 0.593; finite-size effects blur the
	// transition on a radius-18 lattice.
	if crit[0] < 0.45 || crit[0] > 0.75 {
		t.Fatalf("critical p = %v, expected near 0.593", crit[0])
	}
	// The transition is sharp: reach well below 0.5 at p=0.35 and well
	// above at p=0.9.
	reach := f.Series["reach"]
	if reach[0] > 0.3 {
		t.Fatalf("subcritical reach %v too high", reach[0])
	}
	if reach[len(reach)-1] < 0.8 {
		t.Fatalf("supercritical reach %v too low", reach[len(reach)-1])
	}
}

func TestPercolationMonotoneInP(t *testing.T) {
	if testing.Short() {
		t.Skip("percolation sweep in -short mode")
	}
	grid := []float64{0.3, 0.6, 0.95}
	f, err := studyFigure(percolationStudy(12, grid, 8, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	reach := f.Series["reach"]
	for i := 1; i < len(reach); i++ {
		if reach[i] < reach[i-1]-0.05 {
			t.Fatalf("mean reachability should rise with p: %v", reach)
		}
	}
}

func TestPercolationDegenerateArgs(t *testing.T) {
	f, err := studyFigure(percolationStudy(0, []float64{0.5}, 0, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series["reach"]) != 1 {
		t.Fatal("clamped args should still produce a sweep")
	}
	if math.IsNaN(f.Series["reach"][0]) {
		t.Fatal("NaN reach")
	}
}

package experiments

import (
	"math"
	"testing"
)

func TestCostFunctionsShape(t *testing.T) {
	pre := QuickAnalytic()
	pre.Rhos = []float64{10, 40}
	f, err := studyFigure(costStudy(pre, 3))
	if err != nil {
		t.Fatal(err)
	}
	ackE := f.Series["ackEnergy"]
	tdmaT := f.Series["tdmaTime"]
	if len(ackE) != 2 || len(tdmaT) != 2 {
		t.Fatalf("series lengths wrong: %v", f.Series)
	}
	// Both cost functions grow with density.
	if !(ackE[1] > ackE[0]) {
		t.Fatalf("ACK energy should grow with density: %v", ackE)
	}
	if !(tdmaT[1] > tdmaT[0]) {
		t.Fatalf("TDMA latency should grow with density: %v", tdmaT)
	}
	for _, v := range append(append([]float64{}, ackE...), tdmaT...) {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("implausible cost value %v", v)
		}
	}
}

func TestCostFunctionsSeedsClamped(t *testing.T) {
	pre := QuickAnalytic()
	pre.Rhos = []float64{10}
	if _, err := studyFigure(costStudy(pre, 0)); err != nil {
		t.Fatal(err)
	}
}

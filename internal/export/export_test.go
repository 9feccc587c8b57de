package export

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"sensornet/internal/experiments"
	"sensornet/internal/metrics"
)

func TestSeriesCSV(t *testing.T) {
	f := &experiments.FigureResult{
		ID: "figX",
		Series: map[string][]float64{
			"optimalP": {0.5, 0.2},
			"value":    {0.8, math.NaN()},
			"oddball":  {1, 2, 3}, // wrong length: skipped
		},
	}
	var b bytes.Buffer
	if err := SeriesCSV(&b, f, []float64{20, 40}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if strings.Join(rows[0], ",") != "rho,optimalP,value" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[2][2] != "" {
		t.Fatalf("NaN entry should be empty, got %q", rows[2][2])
	}
}

func TestSeriesCSVNil(t *testing.T) {
	if err := SeriesCSV(&bytes.Buffer{}, nil, nil); err == nil {
		t.Fatal("nil figure should error")
	}
}

func TestTimelineCSV(t *testing.T) {
	tl := metrics.Timeline{
		N:             10,
		Phases:        []float64{0, 1},
		CumReach:      []float64{0.1, 0.4},
		CumBroadcasts: []float64{0, 3},
	}
	var b bytes.Buffer
	if err := TimelineCSV(&b, tl); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[2][1] != "0.4" {
		t.Fatalf("timeline csv wrong: %v", rows)
	}
}

// Package export serialises experiment results to CSV so the
// regenerated figures can be plotted or diffed outside this repository.
package export

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"sensornet/internal/experiments"
	"sensornet/internal/metrics"
)

// SeriesCSV writes a figure's named series as columns over the preset's
// density axis: one row per density, one column per series (sorted by
// name for stable output). Series that are not indexed by density
// (different length) are skipped.
func SeriesCSV(w io.Writer, f *experiments.FigureResult, rhos []float64) error {
	if f == nil {
		return errors.New("export: nil figure")
	}
	names := make([]string, 0, len(f.Series))
	for name, vals := range f.Series {
		if len(vals) == len(rhos) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"rho"}, names...)); err != nil {
		return err
	}
	for i, rho := range rhos {
		row := []string{formatF(rho)}
		for _, name := range names {
			row = append(row, formatF(f.Series[name][i]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TimelineCSV writes one timeline as phase-indexed CSV.
func TimelineCSV(w io.Writer, tl metrics.Timeline) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"phase", "cum_reach", "cum_broadcasts"}); err != nil {
		return err
	}
	for i := range tl.Phases {
		err := cw.Write([]string{
			formatF(tl.Phases[i]), formatF(tl.CumReach[i]), formatF(tl.CumBroadcasts[i]),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ""
	}
	return fmt.Sprintf("%g", v)
}

// Render-gate tests: a build renders bodies only when the value its
// load returns changed. An equal value keeps the published snapshot
// without rendering; a changed one renders afresh; a failed load keeps
// the last good snapshot published.
package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"math"
	"reflect"
	"testing"

	"sensornet/internal/optimize"
)

// stubRhos are the stub surface's densities, one per row.
var stubRhos = []float64{40, 100}

// stubRows returns a fresh copy of the stub surface's wire rows, so a
// load that returns them shares no memory with an earlier load.
func stubRows() [][]optimize.WirePoint {
	nan := math.NaN()
	return [][]optimize.WirePoint{
		optimize.Wire([]optimize.Point{
			{P: 0.1, ReachAtL: 0.4, Latency: 6, Broadcasts: 30, ReachAtBudget: 0.3, SuccessRate: nan, Final: 0.9},
			{P: 0.5, ReachAtL: 0.7, Latency: 4, Broadcasts: 55, ReachAtBudget: 0.5, SuccessRate: nan, Final: 0.95},
			{P: 1, ReachAtL: 0.2, Latency: nan, Broadcasts: nan, ReachAtBudget: 0, SuccessRate: nan, Final: 0.3},
		}),
		optimize.Wire([]optimize.Point{
			{P: 0.1, ReachAtL: 0.6, Latency: 5, Broadcasts: 70, ReachAtBudget: 0.4, SuccessRate: nan, Final: 0.97},
			{P: 0.5, ReachAtL: 0.3, Latency: nan, Broadcasts: nan, ReachAtBudget: 0.2, SuccessRate: nan, Final: 0.6},
			{P: 1, ReachAtL: 0.1, Latency: nan, Broadcasts: nan, ReachAtBudget: 0.05, SuccessRate: nan, Final: 0.2},
		}),
	}
}

// stubTable is a surface table over a stub load: each load returns
// rows() or fails with fail, and renders counts the renders.
type stubTable struct {
	*table
	rows    func() [][]optimize.WirePoint
	fail    error
	renders int
}

func newStubTable() *stubTable {
	st := &stubTable{table: &table{name: "stub", rhos: stubRhos}, rows: stubRows}
	st.load = func(context.Context) ([sha256.Size]byte, func() (bodies, error), error) {
		if st.fail != nil {
			return [sha256.Size]byte{}, nil, st.fail
		}
		rows := st.rows()
		pts := make([][]optimize.Point, len(rows))
		for i, row := range rows {
			pts[i] = optimize.Points(row)
		}
		digest, err := surfaceDigest(pts)
		return digest, func() (bodies, error) {
			st.renders++
			return surfaceBodies(st.name, 3, stubRhos, rows)
		}, err
	}
	return st
}

// refresh forces a build, as POST /api/refresh does.
func (st *stubTable) refresh() (*snapshot, error) {
	return st.build(context.Background(), context.Background(), true)
}

func TestRenderGateKeepsSnapshotOfEqualValue(t *testing.T) {
	st := newStubTable()
	first, err := st.build(context.Background(), context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.renders != 1 {
		t.Fatalf("first build rendered %d times, want 1", st.renders)
	}
	for i := 0; i < 3; i++ {
		snap, err := st.refresh()
		if err != nil {
			t.Fatal(err)
		}
		if snap != first || st.store.get() != first {
			t.Fatalf("refresh %d over an equal value replaced the published snapshot", i)
		}
	}
	if st.renders != 1 {
		t.Fatalf("refreshes over an equal value rendered: %d renders, want 1", st.renders)
	}
}

func TestRenderGateRendersChangedValue(t *testing.T) {
	f := func(x float64) *float64 { return &x }
	for _, tc := range []struct {
		name   string
		change func(rows [][]optimize.WirePoint)
	}{
		{"value", func(rows [][]optimize.WirePoint) { rows[0][1].ReachAtL = f(0.71) }},
		{"optimum moves", func(rows [][]optimize.WirePoint) { rows[1][2].ReachAtL = f(0.9) }},
		{"null to value", func(rows [][]optimize.WirePoint) { rows[1][1].Latency = f(7) }},
		{"value to null", func(rows [][]optimize.WirePoint) { rows[0][0].Final = nil }},
		{"zero to negative zero", func(rows [][]optimize.WirePoint) { rows[0][2].ReachAtBudget = f(math.Copysign(0, -1)) }},
		{"row shape", func(rows [][]optimize.WirePoint) { rows[1] = rows[1][:2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newStubTable()
			before, err := st.refresh()
			if err != nil {
				t.Fatal(err)
			}
			st.rows = func() [][]optimize.WirePoint {
				rows := stubRows()
				tc.change(rows)
				return rows
			}
			after, err := st.refresh()
			if err != nil {
				t.Fatal(err)
			}
			if after == before || st.store.get() != after || st.renders != 2 {
				t.Fatalf("changed value: published %p (before %p, got %p), %d renders; want a fresh render published",
					st.store.get(), before, after, st.renders)
			}
			want, err := surfaceBodies(st.name, 3, stubRhos, st.rows())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after.bodies, want) {
				t.Fatal("bodies after the change differ from a fresh render of the changed value")
			}
			if reflect.DeepEqual(after.bodies, before.bodies) {
				t.Fatal("the change moved no body; the case tests nothing")
			}
		})
	}
}

func TestRenderGateKeepsLastGoodOnFailedLoad(t *testing.T) {
	st := newStubTable()
	good, err := st.refresh()
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	for _, tc := range []struct {
		name  string
		setup func()
	}{
		{"load error", func() { st.fail = errors.New("rows unpublished") }},
		// JSON has no infinity: the digest fails, as the render would.
		{"infinite value", func() {
			st.fail = nil
			st.rows = func() [][]optimize.WirePoint {
				rows := stubRows()
				rows[0][0].Latency = &inf
				return rows
			}
		}},
	} {
		tc.setup()
		if snap, err := st.refresh(); err == nil || snap != nil {
			t.Fatalf("%s: refresh returned %p, %v; want an error", tc.name, snap, err)
		}
		if st.store.get() != good {
			t.Fatalf("%s: the last good snapshot was replaced", tc.name)
		}
	}
	if st.renders != 1 {
		t.Fatalf("failed loads rendered: %d renders, want 1", st.renders)
	}
}

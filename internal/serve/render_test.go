// Cold-table render test: a table whose loaded value cannot encode
// publishes nothing, so every request wave answers the failure and
// loads again until a load succeeds.
package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
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

// TestColdTableThatCannotEncodeStaysCold: JSON has no infinity, so a
// surface holding ±Inf fails to render. Each request then answers 500
// and leaves the table cold, the next one loads again, and the first
// load whose value encodes publishes.
func TestColdTableThatCannotEncodeStaysCold(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		eng := engine.New(engine.Config{Workers: 1, Cache: engine.NewCache("", experiments.CacheSalt), CacheOnly: true})
		srv, err := NewCtx(t.Context(), eng, experiments.QuickAnalytic(), experiments.QuickSim())
		if err != nil {
			t.Fatal(err)
		}
		tab, loads, finite := srv.tables[0], 0, false
		tab.load = func(context.Context) (bodies, error) {
			loads++
			rows := stubRows()
			if !finite {
				rows[0][0].Latency = &inf
			}
			return surfaceBodies(tab.name, 3, stubRhos, rows)
		}
		get := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/surface?surface=analytic", nil))
			return rec
		}
		for i := 1; i <= 2; i++ {
			rec := get()
			if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") {
				t.Fatalf("%v, request %d: status %d body %s; want 500 naming the value", inf, i, rec.Code, rec.Body)
			}
			if tab.published.Load() != nil || loads != i {
				t.Fatalf("%v, request %d: %d loads, published %v; want %d loads and a cold table",
					inf, i, loads, tab.published.Load() != nil, i)
			}
		}
		finite = true
		if rec := get(); rec.Code != http.StatusOK || tab.published.Load() == nil || loads != 3 {
			t.Fatalf("%v, finite load: status %d after %d loads; want 200 and a published table", inf, rec.Code, loads)
		}
	}
}

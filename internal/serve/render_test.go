// Cold-table render test: a table whose loaded value cannot encode
// publishes nothing, so every request wave answers the failure and
// loads again until a load succeeds.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
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

// TestSplicedBodiesMatchEncodeJSON holds every body whose rows are
// spliced in from once-encoded blocks to encodeJSON of the whole body:
// random surfaces (null metrics, empty and nil rows, a single density,
// nil and empty row lists) and random shootouts under every filter.
func TestSplicedBodiesMatchEncodeJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	num := func() float64 {
		return []float64{0, -0.5, 1, 1e-7, 123456789, 1e21, rng.Float64(), -rng.ExpFloat64()}[rng.Intn(8)]
	}
	metric := func() *float64 {
		if rng.Intn(3) == 0 {
			return nil
		}
		x := num()
		return &x
	}
	check := func(what string, got []byte, want any) {
		t.Helper()
		enc, err := encodeJSON(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, enc) {
			t.Fatalf("%s: spliced body\n%s\nencodeJSON\n%s", what, got, enc)
		}
	}

	surfaces := []struct {
		rhos []float64
		rows [][]optimize.WirePoint
	}{
		{nil, nil},
		{[]float64{}, [][]optimize.WirePoint{}},
		{[]float64{60}, [][]optimize.WirePoint{{}}},
		{[]float64{20, 60}, [][]optimize.WirePoint{nil, {{P: 1}}}},
	}
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(4)
		rhos := make([]float64, n)
		rows := make([][]optimize.WirePoint, n)
		for j := range rows {
			rhos[j] = num()
			rows[j] = make([]optimize.WirePoint, rng.Intn(5))
			for k := range rows[j] {
				rows[j][k] = optimize.WirePoint{P: num(), ReachAtL: metric(), Latency: metric(), Broadcasts: metric(),
					ReachAtBudget: metric(), SuccessRate: metric(), Final: metric()}
			}
		}
		surfaces = append(surfaces, struct {
			rhos []float64
			rows [][]optimize.WirePoint
		}{rhos, rows})
	}
	for i, surf := range surfaces {
		b, err := surfaceBodies("analytic", 3, surf.rhos, surf.rows)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("surface %d, full", i), b[key{"surface", "", -1}],
			surfaceBody{Surface: "analytic", S: 3, Rhos: surf.rhos, Rows: surf.rows})
		for j, rho := range surf.rhos {
			check(fmt.Sprintf("surface %d, rho %d", i, j), b[key{"surface", "", j}],
				surfaceBody{Surface: "analytic", S: 3, Rhos: []float64{rho}, Rows: surf.rows[j : j+1]})
		}
	}

	models := shootoutModels()
	for i := 0; i < 20; i++ {
		data := &experiments.ShootoutData{Models: models, Rhos: make([]float64, rng.Intn(4))}
		for j := range data.Rhos {
			data.Rhos[j] = num()
		}
		for _, model := range models {
			for _, rho := range data.Rhos {
				row := experiments.ShootoutRow{Model: model, Rho: rho, Best: map[string]string{}}
				for s := rng.Intn(4); s > 0; s-- {
					var sc experiments.ShootoutScheme
					sc.Scheme, sc.Display = fmt.Sprint("pb", s), fmt.Sprintf("PB(p=%g) <&>", num())
					sc.Coverage, sc.ReachAtL, sc.Broadcasts, sc.SuccessRate = num(), num(), num(), num()
					row.Schemes = append(row.Schemes, sc)
					row.Best[fmt.Sprint("objective", rng.Intn(3))] = sc.Scheme
				}
				data.Rows = append(data.Rows, row)
			}
		}
		etags := map[key]string{}
		for _, m := range append([]string{"", "nope"}, models...) {
			for r := -1; r < len(data.Rhos); r++ {
				etags[key{"shootout", m, r}] = ""
			}
		}
		b, err := shootoutBodies(data, etags)
		if err != nil {
			t.Fatal(err)
		}
		for k := range etags {
			body, rows := shootoutFilter(data, data.Rows, k)
			body.Rows = rows
			check(fmt.Sprintf("shootout %d, %+v", i, k), b[k], body)
		}
	}
}

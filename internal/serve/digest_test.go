// Digest tests: the render gate's typed digest moves with every value
// a body can show — any float's bits, any string, a metric's presence,
// any row length — keeps equal values equal, and fails wherever a body
// would have to encode NaN or ±Inf as a JSON number.
package serve

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"sensornet/internal/experiments"
	"sensornet/internal/optimize"
)

// stubPoints returns a fresh copy of the stub surface as points.
func stubPoints() [][]optimize.Point {
	var rows [][]optimize.Point
	for _, row := range stubRows() {
		rows = append(rows, optimize.Points(row))
	}
	return rows
}

// pointFloats lists the addresses of a point's seven floats: P, then
// the six nullable metrics.
func pointFloats(pt *optimize.Point) []*float64 {
	return []*float64{&pt.P, &pt.ReachAtL, &pt.Latency, &pt.Broadcasts,
		&pt.ReachAtBudget, &pt.SuccessRate, &pt.Final}
}

func mustSurfaceDigest(t *testing.T, rows [][]optimize.Point) [sha256.Size]byte {
	t.Helper()
	d, err := surfaceDigest(rows)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSurfaceDigestMovesWithEveryValue(t *testing.T) {
	base := mustSurfaceDigest(t, stubPoints())
	if mustSurfaceDigest(t, stubPoints()) != base {
		t.Fatal("equal surfaces hashed apart")
	}
	changed := func(what string, change func(rows [][]optimize.Point)) {
		t.Helper()
		rows := stubPoints()
		change(rows)
		if mustSurfaceDigest(t, rows) == base {
			t.Errorf("%s: the digest did not move", what)
		}
	}
	for i, row := range stubPoints() {
		for j := range row {
			for f := range pointFloats(&row[j]) {
				changed("one float's last bit", func(rows [][]optimize.Point) {
					x := pointFloats(&rows[i][j])[f]
					if math.IsNaN(*x) {
						*x = 0.5 // presence: null to a value
						return
					}
					*x = math.Nextafter(*x, 2)
				})
				if f > 0 {
					changed("a metric's presence", func(rows [][]optimize.Point) {
						x := pointFloats(&rows[i][j])[f]
						if math.IsNaN(*x) {
							*x = 0
						} else {
							*x = math.NaN()
						}
					})
				}
			}
		}
	}
	changed("a shorter row", func(rows [][]optimize.Point) { rows[1] = rows[1][:2] })
	changed("a point moved between rows", func(rows [][]optimize.Point) {
		rows[0], rows[1] = append(rows[0], rows[1][0]), rows[1][1:]
	})
	if mustSurfaceDigest(t, stubPoints()[:1]) == base {
		t.Error("a row fewer: the digest did not move")
	}

	zero, negZero := stubPoints(), stubPoints()
	zero[0][2].ReachAtBudget, negZero[0][2].ReachAtBudget = 0, math.Copysign(0, -1)
	if mustSurfaceDigest(t, zero) == mustSurfaceDigest(t, negZero) {
		t.Error("0 and -0 hashed together")
	}
	// A present 0 is as many zero bytes as absent metrics are without
	// their presence bytes: moving it to the next metric must still
	// move the digest.
	first, second := stubPoints(), stubPoints()
	first[1][2].Latency, first[1][2].Broadcasts = 0, math.NaN()
	second[1][2].Latency, second[1][2].Broadcasts = math.NaN(), 0
	if mustSurfaceDigest(t, first) == mustSurfaceDigest(t, second) {
		t.Error("a present 0 moved to the next metric hashed together")
	}
	// A NaN metric reads null whatever its payload, as optimize.Wire
	// encodes it.
	payload := stubPoints()
	payload[0][0].SuccessRate = math.Float64frombits(0x7ff8000000000001)
	if mustSurfaceDigest(t, payload) != base {
		t.Error("a NaN payload moved the digest of a null metric")
	}
}

func TestSurfaceDigestFailsOnNonJSONNumbers(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    float64
		f    int // index into pointFloats
	}{
		{"NaN p", math.NaN(), 0},
		{"+Inf p", math.Inf(1), 0},
		{"-Inf p", math.Inf(-1), 0},
		{"+Inf metric", math.Inf(1), 2},
		{"-Inf metric", math.Inf(-1), 6},
	} {
		rows := stubPoints()
		*pointFloats(&rows[1][1])[tc.f] = tc.x
		if _, err := surfaceDigest(rows); err == nil {
			t.Errorf("%s: the digest did not fail", tc.name)
		}
	}
}

// stubShootout returns a fresh two-model, two-density shootout.
func stubShootout() *experiments.ShootoutData {
	data := &experiments.ShootoutData{Models: []string{"CFM", "SINR"}, Rhos: []float64{40, 100}}
	v := 0.0
	for _, model := range data.Models {
		for _, rho := range data.Rhos {
			row := experiments.ShootoutRow{Model: model, Rho: rho,
				Best: map[string]string{"coverage": "flooding", "energy": "pb"}}
			for _, scheme := range []string{"flooding", "pb"} {
				s := experiments.ShootoutScheme{Scheme: scheme, Display: scheme + "(x)"}
				for _, x := range schemeFloats(&s) {
					v += 0.125
					*x = v
				}
				row.Schemes = append(row.Schemes, s)
			}
			data.Rows = append(data.Rows, row)
		}
	}
	return data
}

// schemeFloats lists the addresses of a scheme's seven aggregates.
func schemeFloats(s *experiments.ShootoutScheme) []*float64 {
	return []*float64{&s.Coverage, &s.ReachAtL, &s.Settle, &s.Broadcasts,
		&s.Delivered, &s.LostColl, &s.SuccessRate}
}

// shootoutFloats lists the addresses of every float in data.
func shootoutFloats(data *experiments.ShootoutData) []*float64 {
	var xs []*float64
	for i := range data.Rhos {
		xs = append(xs, &data.Rhos[i])
	}
	for i := range data.Rows {
		xs = append(xs, &data.Rows[i].Rho)
		for j := range data.Rows[i].Schemes {
			xs = append(xs, schemeFloats(&data.Rows[i].Schemes[j])...)
		}
	}
	return xs
}

// shootoutStrings lists the addresses of every string in data but
// Best's keys.
func shootoutStrings(data *experiments.ShootoutData) []*string {
	var ss []*string
	for i := range data.Models {
		ss = append(ss, &data.Models[i])
	}
	for i := range data.Rows {
		ss = append(ss, &data.Rows[i].Model)
		for j := range data.Rows[i].Schemes {
			ss = append(ss, &data.Rows[i].Schemes[j].Scheme, &data.Rows[i].Schemes[j].Display)
		}
	}
	return ss
}

func mustShootoutDigest(t *testing.T, data *experiments.ShootoutData) [sha256.Size]byte {
	t.Helper()
	d, err := shootoutDigest(data)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestShootoutDigestMovesWithEveryValue(t *testing.T) {
	base := mustShootoutDigest(t, stubShootout())
	// Best is a map: its iteration order must not reach the digest.
	for i := 0; i < 20; i++ {
		if mustShootoutDigest(t, stubShootout()) != base {
			t.Fatal("equal shootouts hashed apart")
		}
	}
	changed := func(what string, change func(data *experiments.ShootoutData)) {
		t.Helper()
		data := stubShootout()
		change(data)
		if mustShootoutDigest(t, data) == base {
			t.Errorf("%s: the digest did not move", what)
		}
	}
	for i := range shootoutFloats(stubShootout()) {
		changed("one float's last bit", func(data *experiments.ShootoutData) {
			x := shootoutFloats(data)[i]
			*x = math.Nextafter(*x, math.Inf(1))
		})
	}
	for i := range shootoutStrings(stubShootout()) {
		changed("one string", func(data *experiments.ShootoutData) { *shootoutStrings(data)[i] += "!" })
	}
	changed("a Best value", func(data *experiments.ShootoutData) { data.Rows[2].Best["energy"] = "flooding" })
	changed("a Best key", func(data *experiments.ShootoutData) {
		delete(data.Rows[3].Best, "energy")
		data.Rows[3].Best["energyx"] = "pb"
	})
	changed("a Best entry fewer", func(data *experiments.ShootoutData) { delete(data.Rows[0].Best, "coverage") })
	changed("a scheme fewer", func(data *experiments.ShootoutData) { data.Rows[1].Schemes = data.Rows[1].Schemes[:1] })
	changed("a row fewer", func(data *experiments.ShootoutData) { data.Rows = data.Rows[:3] })
	changed("a model fewer", func(data *experiments.ShootoutData) { data.Models = data.Models[:1] })
	changed("a density fewer", func(data *experiments.ShootoutData) { data.Rhos = data.Rhos[:1] })
	changed("a byte moved between strings", func(data *experiments.ShootoutData) {
		s := &data.Rows[0].Schemes[0]
		s.Scheme, s.Display = s.Scheme+s.Display[:1], s.Display[1:]
	})

	zero, negZero := stubShootout(), stubShootout()
	zero.Rows[0].Schemes[0].LostColl, negZero.Rows[0].Schemes[0].LostColl = 0, math.Copysign(0, -1)
	if mustShootoutDigest(t, zero) == mustShootoutDigest(t, negZero) {
		t.Error("0 and -0 hashed together")
	}
	// JSON tells a nil slice or map (null) from an empty one.
	nilBest, emptyBest := stubShootout(), stubShootout()
	nilBest.Rows[0].Best, emptyBest.Rows[0].Best = nil, map[string]string{}
	if mustShootoutDigest(t, nilBest) == mustShootoutDigest(t, emptyBest) {
		t.Error("a nil and an empty Best hashed together")
	}
	nilSchemes, emptySchemes := stubShootout(), stubShootout()
	nilSchemes.Rows[3].Schemes, emptySchemes.Rows[3].Schemes = nil, []experiments.ShootoutScheme{}
	if mustShootoutDigest(t, nilSchemes) == mustShootoutDigest(t, emptySchemes) {
		t.Error("nil and empty schemes hashed together")
	}
}

func TestShootoutDigestFailsOnNonJSONNumbers(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := range shootoutFloats(stubShootout()) {
			data := stubShootout()
			*shootoutFloats(data)[i] = x
			if _, err := shootoutDigest(data); err == nil {
				t.Fatalf("%v at float %d: the digest did not fail", x, i)
			}
		}
	}
}

// TestDigestCoversEveryWireField guards the digests against a field
// added to a served type: each type's JSON keys must be exactly the
// ones its digest hashes.
func TestDigestCoversEveryWireField(t *testing.T) {
	for _, tc := range []struct {
		v    any
		keys []string
	}{
		{optimize.WirePoint{}, []string{"p", "reachAtL", "latency", "broadcasts", "reachAtBudget", "successRate", "final"}},
		{experiments.ShootoutData{}, []string{"models", "rhos", "rows"}},
		{experiments.ShootoutRow{}, []string{"model", "rho", "schemes", "best"}},
		{experiments.ShootoutScheme{}, []string{"scheme", "display", "coverage", "reachAtL", "settle",
			"broadcasts", "delivered", "lostColl", "successRate"}},
	} {
		enc, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(enc, &fields); err != nil {
			t.Fatal(err)
		}
		var got []string
		for k := range fields {
			got = append(got, k)
		}
		slices.Sort(got)
		want := slices.Clone(tc.keys)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%T encodes keys %v; its digest hashes %v", tc.v, got, want)
		}
	}
}

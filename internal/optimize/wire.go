package optimize

import "math"

// WirePoint is the one JSON shape of a Point, shared by the result
// cache and the query server. An infeasible (NaN) metric is null; JSON
// has no infinity, so a Point holding one does not encode.
type WirePoint struct {
	P             float64  `json:"p"`
	ReachAtL      *float64 `json:"reachAtL"`
	Latency       *float64 `json:"latency"`
	Broadcasts    *float64 `json:"broadcasts"`
	ReachAtBudget *float64 `json:"reachAtBudget"`
	SuccessRate   *float64 `json:"successRate"`
	Final         *float64 `json:"final"`
}

// Wire returns the wire rows of pts.
func Wire(pts []Point) []WirePoint {
	null := func(x float64) *float64 {
		if math.IsNaN(x) {
			return nil
		}
		return &x
	}
	rows := make([]WirePoint, len(pts))
	for i, pt := range pts {
		rows[i] = WirePoint{P: pt.P, ReachAtL: null(pt.ReachAtL), Latency: null(pt.Latency),
			Broadcasts: null(pt.Broadcasts), ReachAtBudget: null(pt.ReachAtBudget),
			SuccessRate: null(pt.SuccessRate), Final: null(pt.Final)}
	}
	return rows
}

// Points is the inverse of Wire: a null metric reads NaN.
func Points(rows []WirePoint) []Point {
	nan := func(p *float64) float64 {
		if p == nil {
			return math.NaN()
		}
		return *p
	}
	pts := make([]Point, len(rows))
	for i, r := range rows {
		pts[i] = Point{P: r.P, ReachAtL: nan(r.ReachAtL), Latency: nan(r.Latency),
			Broadcasts: nan(r.Broadcasts), ReachAtBudget: nan(r.ReachAtBudget),
			SuccessRate: nan(r.SuccessRate), Final: nan(r.Final)}
	}
	return pts
}

// Package geom implements the planar geometry used by the analytical
// framework of the paper: circle–circle intersection areas (Eq. 1), the
// partition of a node's transmission disk across the concentric rings of
// the deployment field (Fig. 3), and the carrier-sensing annulus areas of
// Appendix A.
package geom

import "math"

// Point is a position in the deployment plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It is
// the comparison-friendly form used by neighbour queries.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the distance of p from the origin.
func (p Point) Norm() float64 {
	return math.Hypot(p.X, p.Y)
}

// DiskArea returns the area of a disk of radius r (0 for r <= 0).
func DiskArea(r float64) float64 {
	if r <= 0 {
		return 0
	}
	return math.Pi * r * r
}

// AnnulusArea returns the area of the annulus with inner radius r1 and
// outer radius r2 (0 when r2 <= r1).
func AnnulusArea(r1, r2 float64) float64 {
	if r2 <= r1 {
		return 0
	}
	return DiskArea(r2) - DiskArea(r1)
}

// LensArea returns the intersection area of a circle of radius r1
// centred at the origin and a circle of radius r2 whose centre lies at
// distance d. Degenerate configurations (containment, disjoint circles,
// non-positive radii) are handled exactly.
func LensArea(r1, r2, d float64) float64 {
	if r1 <= 0 || r2 <= 0 {
		return 0
	}
	if d < 0 {
		d = -d
	}
	if d >= r1+r2 {
		return 0
	}
	if d <= math.Abs(r1-r2) {
		return DiskArea(math.Min(r1, r2))
	}
	// Circular segment decomposition. Its round-off depends on which
	// radius is which, so fix their order to keep the area symmetric.
	// Clamp the acos arguments against round-off at tangency.
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	a1 := clampUnit((d*d + r1*r1 - r2*r2) / (2 * d * r1))
	a2 := clampUnit((d*d + r2*r2 - r1*r1) / (2 * d * r2))
	alpha := math.Acos(a1)
	beta := math.Acos(a2)
	tri := 0.5 * math.Sqrt(math.Max(0,
		(-d+r1+r2)*(d+r1-r2)*(d-r1+r2)*(d+r1+r2)))
	area := r1*r1*alpha + r2*r2*beta - tri
	// Near-tangency round-off can push the formula a hair past the
	// contained-disk bound; clamp so downstream partitions stay exact.
	if bound := DiskArea(math.Min(r1, r2)); area > bound {
		area = bound
	}
	if area < 0 {
		area = 0
	}
	return area
}

func clampUnit(v float64) float64 {
	if v < -1 {
		return -1
	}
	if v > 1 {
		return 1
	}
	return v
}

// F is the paper's f(D1, D2, x) (Eq. 1): the intersection area of circle
// L1 of radius d1 centred at the origin with circle L2 of radius d2 whose
// centre sits at signed distance x from the border of L1 (positive
// outside, negative inside), i.e. at distance d1 + x from the origin.
func F(d1, d2, x float64) float64 {
	return LensArea(d1, d2, d1+x)
}

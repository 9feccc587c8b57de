package deploy

// The closure-based build the cell-sorted index replaced: a grid of
// per-cell bucket slices visited through a callback per candidate. It
// is kept here unchanged (renamed only) as the reference that FuzzBuild
// and TestBuildMatchesReference hold Build to, list order and gain
// bits included.

import (
	"math"

	"sensornet/internal/geom"
)

// referenceBuild is Build on the reference index.
func referenceBuild(cfg Config, pos []geom.Point) *Deployment {
	cfg.applyDefaults()
	d := &Deployment{Pos: pos, R: cfg.R, FieldRadius: float64(cfg.P) * cfg.R}
	d.referenceBuildNeighbors(cfg.WithSensing, cfg.GainAlpha)
	return d
}

// referenceBuildNeighbors fills the neighbour (and optionally sensing) lists with
// a uniform grid of cell size 2R so that both ranges need only a 3×3
// cell scan when sensing lists are requested, and of size R otherwise.
//
// All lists of one kind share a single flat backing array: the scan
// appends every accepted candidate to the shared array (whose capacity
// is pre-sized from the expected degree, so growth is rare) and per-node
// sub-slices are carved afterwards. Growing each of the N lists by
// repeated append dominated the simulator's whole allocation profile
// (~97% of allocs at ρ=140); the flat layout reduces the build to a
// handful of allocations and keeps each node's neighbours contiguous —
// without a second distance pass.
func (d *Deployment) referenceBuildNeighbors(withSensing bool, gainAlpha float64) {
	n := len(d.Pos)
	d.Neighbors = make([][]int32, n)
	if withSensing {
		d.Sensing = make([][]int32, n)
	}
	withGains := gainAlpha > 0
	if withGains {
		d.GainAlpha = gainAlpha
		d.Gains = make([][]float64, n)
		if withSensing {
			d.SensingGains = make([][]float64, n)
		}
	}
	reach := d.R
	if withSensing {
		reach = 2 * d.R
	}
	if reach <= 0 {
		return
	}
	idx := newReferenceGrid(d.Pos, reach)
	r2 := d.R * d.R
	s2 := 4 * d.R * d.R

	// Expected totals: mean degree ≈ (n-1)·(R/field)², sensing annulus
	// holds 3× the disk's area. 10% slack absorbs density fluctuations.
	estDeg := float64(n-1) * r2 / (d.FieldRadius * d.FieldRadius)
	est := int(1.1*float64(n)*estDeg) + 64

	nbrCount := make([]int32, n)
	nbrFlat := make([]int32, 0, est)
	var senseCount []int32
	var senseFlat []int32
	if withSensing {
		senseCount = make([]int32, n)
		senseFlat = make([]int32, 0, 3*est)
	}
	// Gain values ride the same flat-array discipline as the index
	// lists: appended during the one distance pass (the squared distance
	// is already in hand), carved into per-node sub-slices afterwards.
	var nbrGainFlat, senseGainFlat []float64
	if withGains {
		nbrGainFlat = make([]float64, 0, est)
		if withSensing {
			senseGainFlat = make([]float64, 0, 3*est)
		}
	}
	for i := 0; i < n; i++ {
		pi := d.Pos[i]
		idx.visitCandidates(pi, func(j int32) {
			if int(j) == i {
				return
			}
			dd := pi.Dist2(d.Pos[j])
			switch {
			case dd <= r2:
				nbrFlat = append(nbrFlat, j)
				nbrCount[i]++
				if withGains {
					nbrGainFlat = append(nbrGainFlat, PathGain(dd, r2, gainAlpha))
				}
			case withSensing && dd <= s2:
				senseFlat = append(senseFlat, j)
				senseCount[i]++
				if withGains {
					senseGainFlat = append(senseGainFlat, PathGain(dd, r2, gainAlpha))
				}
			}
		})
	}

	for i, off := 0, 0; i < n; i++ {
		end := off + int(nbrCount[i])
		d.Neighbors[i] = nbrFlat[off:end:end]
		if withGains {
			d.Gains[i] = nbrGainFlat[off:end:end]
		}
		off = end
	}
	if withSensing {
		for i, off := 0, 0; i < n; i++ {
			end := off + int(senseCount[i])
			d.Sensing[i] = senseFlat[off:end:end]
			if withGains {
				d.SensingGains[i] = senseGainFlat[off:end:end]
			}
			off = end
		}
	}
}

// referenceGrid is a uniform-grid spatial index over node positions. Cell
// size equals the query radius, so every point within that radius of a
// query point lies in the 3×3 block of cells around it.
type referenceGrid struct {
	cell    float64
	minX    float64
	minY    float64
	cols    int
	rows    int
	buckets [][]int32
}

func newReferenceGrid(pos []geom.Point, cell float64) *referenceGrid {
	g := &referenceGrid{cell: cell}
	if len(pos) == 0 || cell <= 0 {
		return g
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pos {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	g.minX, g.minY = minX, minY
	g.cols = int((maxX-minX)/cell) + 1
	g.rows = int((maxY-minY)/cell) + 1
	// Count-then-fill into one flat backing array: growing each bucket
	// by append costs an allocation per growth step across thousands of
	// cells, where the flat layout needs exactly three.
	g.buckets = make([][]int32, g.cols*g.rows)
	counts := make([]int32, len(g.buckets))
	for _, p := range pos {
		counts[g.cellOf(p)]++
	}
	flat := make([]int32, len(pos))
	off := 0
	for c := range g.buckets {
		g.buckets[c] = flat[off : off : off+int(counts[c])]
		off += int(counts[c])
	}
	for i, p := range pos {
		c := g.cellOf(p)
		g.buckets[c] = append(g.buckets[c], int32(i))
	}
	return g
}

func (g *referenceGrid) cellOf(p geom.Point) int {
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// visitCandidates invokes fn for every indexed point in the 3×3 cell
// block around p: a superset of the points within g.cell of p.
func (g *referenceGrid) visitCandidates(p geom.Point, fn func(int32)) {
	if len(g.buckets) == 0 {
		return
	}
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	for dy := -1; dy <= 1; dy++ {
		y := cy + dy
		if y < 0 || y >= g.rows {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= g.cols {
				continue
			}
			for _, id := range g.buckets[y*g.cols+x] {
				fn(id)
			}
		}
	}
}

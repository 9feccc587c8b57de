package deploy

import (
	"math"

	"sensornet/internal/geom"
)

// cellIndex is a uniform-grid spatial index over node positions,
// counting-sorted by cell: cells in row-major order, and ascending node
// id within a cell. Cell size equals the query radius, so every point
// within that radius of a query point lies in the 3×3 block of cells
// around it, and each row of that block is one contiguous run of the
// sorted order (see block).
type cellIndex struct {
	cols int
	rows int
	// start[c] is the sorted slot of cell c's first node; start[c+1]
	// ends the cell, so start has one entry per cell plus one.
	start []int32
	// ids and pos hold the node ids and their positions in sorted order.
	ids []int32
	pos []geom.Point
}

func newCellIndex(pos []geom.Point, cell float64) cellIndex {
	var g cellIndex
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
	g.cols = int((maxX-minX)/cell) + 1
	g.rows = int((maxY-minY)/cell) + 1
	// Subtraction, division and truncation are all monotone, so a
	// coordinate between the extremes maps into [0, cols) × [0, rows).
	cellOf := func(p geom.Point) int {
		return int((p.Y-minY)/cell)*g.cols + int((p.X-minX)/cell)
	}
	// Counting sort: count each cell, prefix-sum the counts into cell
	// ends, then place nodes in descending id order, decrementing their
	// cell's end. That leaves start[c] at the cell's first slot and each
	// cell in ascending id order, with no cursor array.
	g.start = make([]int32, g.cols*g.rows+1)
	for _, p := range pos {
		g.start[cellOf(p)]++
	}
	var sum int32
	for c, k := range g.start {
		sum += k
		g.start[c] = sum
	}
	g.ids = make([]int32, len(pos))
	g.pos = make([]geom.Point, len(pos))
	for i := len(pos) - 1; i >= 0; i-- {
		c := cellOf(pos[i])
		g.start[c]--
		k := g.start[c]
		g.ids[k] = int32(i)
		g.pos[k] = pos[i]
	}
	return g
}

// block returns the 3×3 cell block around cell c as three runs
// [lo, hi) of the sorted order, one per block row in ascending row
// order; a row outside the grid is an empty run. Within a run, nodes
// come by ascending cell and then ascending id.
func (g *cellIndex) block(c int) (runs [3][2]int) {
	cx, cy := c%g.cols, c/g.cols
	x0, x1 := max(cx-1, 0), min(cx+1, g.cols-1)
	for r := range runs {
		y := cy - 1 + r
		if y < 0 || y >= g.rows {
			continue
		}
		runs[r] = [2]int{int(g.start[y*g.cols+x0]), int(g.start[y*g.cols+x1+1])}
	}
	return runs
}

// maxBlock returns the most nodes any occupied cell's block holds: the
// candidate count a scan around one node never exceeds.
func (g *cellIndex) maxBlock() int {
	most := 0
	for c := 0; c+1 < len(g.start); c++ {
		if g.start[c] == g.start[c+1] {
			continue
		}
		m := 0
		for _, run := range g.block(c) {
			m += run[1] - run[0]
		}
		most = max(most, m)
	}
	return most
}

// candidate is a node a scan found in range, with its squared distance.
type candidate struct {
	dd float64
	j  int32
}

// within compacts into buf, in run order, the nodes of runs at squared
// distance at most outer from p, and returns them; buf must hold every
// node of the runs. Each node is stored unconditionally and kept by
// advancing past it only when in range, so the loop has no
// data-dependent branch.
func (g *cellIndex) within(p geom.Point, runs [3][2]int, outer float64, buf []candidate) []candidate {
	m := 0
	for _, run := range runs {
		ids := g.ids[run[0]:run[1]]
		for t, q := range g.pos[run[0]:run[1]] {
			dd := p.Dist2(q)
			buf[m] = candidate{dd: dd, j: ids[t]}
			if dd <= outer {
				m++
			}
		}
	}
	return buf[:m]
}

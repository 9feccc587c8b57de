// Package deploy generates and indexes the sensor-field deployments the
// paper evaluates on: N = δπ(Pr)² nodes uniformly distributed in a disk
// of radius P·r with the broadcast source at the centre (§4).
//
// Deployments precompute neighbour lists (and, optionally, the
// carrier-sensing lists of nodes between r and 2r) with a uniform-grid
// spatial index, so simulation runs never pay an O(N²) neighbour scan.
package deploy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"sensornet/internal/geom"
	"sensornet/internal/mathx"
)

// Config describes a deployment to generate.
type Config struct {
	// P is the field radius in units of the transmission radius.
	P int
	// R is the transmission radius (defaults to 1).
	R float64
	// Rho is the target density as expected neighbours per node,
	// ρ = δπr². The node count becomes round(ρ·P²).
	Rho float64
	// N overrides the node count directly when positive (Rho is then
	// only informational).
	N int
	// Grid switches from uniform random placement to a square lattice
	// with spacing just under R, so each interior node has exactly its
	// four lattice neighbours in range — the grid deployment of the
	// percolation analysis the paper cites. Rho and N are ignored; the
	// node count is the number of lattice points inside the field.
	Grid bool
	// Profile, when non-nil, makes the deployment radially
	// heterogeneous: the local density at distance r from the centre
	// is proportional to Profile(r/fieldRadius). The node count still
	// follows Rho (interpreted as the field-wide mean density), so
	// profiles redistribute rather than add nodes. Profile must be
	// non-negative on [0, 1] and not identically zero.
	Profile func(rNorm float64) float64
	// WithSensing additionally builds the carrier-sensing neighbour
	// lists (nodes at distance in (r, 2r]).
	WithSensing bool
	// GainAlpha, when positive, additionally precomputes per-edge
	// path-loss gains g = (d/R)^-GainAlpha for every neighbour (and,
	// with WithSensing, every sensing-annulus) edge during the same
	// single distance pass that builds the lists. The normalised form
	// makes the gain exactly 1 at the range edge regardless of R, so
	// SINR decode thresholds are radius-independent. Zero leaves the
	// gain tables nil.
	GainAlpha float64
}

func (c *Config) applyDefaults() {
	//lint:ignore floateq exact zero is the "unset" sentinel for config fields, not a computed value
	if c.R == 0 {
		c.R = 1
	}
}

// Validate reports whether the configuration can produce a deployment.
func (c Config) Validate() error {
	if c.P < 1 {
		return errors.New("deploy: P must be >= 1")
	}
	if c.R < 0 {
		return errors.New("deploy: R must be >= 0")
	}
	if c.N <= 0 && c.Rho <= 0 && !c.Grid {
		return errors.New("deploy: need Rho > 0, N > 0, or Grid")
	}
	if c.N < 0 {
		return fmt.Errorf("deploy: negative N %d", c.N)
	}
	if c.GainAlpha < 0 || !mathx.IsFinite(c.GainAlpha) {
		return fmt.Errorf("deploy: GainAlpha must be finite and >= 0, got %g", c.GainAlpha)
	}
	return nil
}

// Deployment is an immutable snapshot of a deployed network. Node 0 is
// the broadcast source at the field centre.
type Deployment struct {
	// Pos holds node positions; Pos[0] is the origin.
	Pos []geom.Point
	// R is the transmission radius.
	R float64
	// FieldRadius is P·R.
	FieldRadius float64
	// Neighbors[i] lists nodes within distance R of node i (symmetric,
	// i excluded).
	Neighbors [][]int32
	// Sensing[i] lists nodes at distance in (R, 2R] of node i; nil
	// unless requested at generation time.
	Sensing [][]int32
	// Gains[i][k] is the path-loss gain (d/R)^-GainAlpha of the edge to
	// Neighbors[i][k]; SensingGains[i][k] likewise for Sensing[i][k].
	// Both are nil unless Config.GainAlpha was positive. Gains are
	// symmetric because distance is.
	Gains        [][]float64
	SensingGains [][]float64
	// GainAlpha records the path-loss exponent the gain tables were
	// built with (0 when absent).
	GainAlpha float64
}

// N returns the number of nodes including the source.
func (d *Deployment) N() int { return len(d.Pos) }

// Generate samples a deployment using rng. The result is deterministic
// for a given rng state: it is Build(cfg, Place(cfg, rng)).
func Generate(cfg Config, rng *rand.Rand) (*Deployment, error) {
	pos, err := Place(cfg, rng)
	if err != nil {
		return nil, err
	}
	return Build(cfg, pos)
}

// Place makes every rng draw a deployment takes and returns the node
// positions, source first at the origin. A lattice draws nothing.
// Build turns the positions into a Deployment without touching the rng,
// so a caller holding a built index for the same config and rng state
// can replay Place alone and leave the rng exactly where Generate
// would.
func Place(cfg Config, rng *rand.Rand) ([]geom.Point, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	field := float64(cfg.P) * cfg.R
	if cfg.Grid {
		return latticePositions(field, cfg.R), nil
	}
	n := cfg.N
	if n == 0 {
		n = int(math.Round(cfg.Rho * float64(cfg.P) * float64(cfg.P)))
	}
	if n < 1 {
		n = 1
	}
	pos := make([]geom.Point, n)
	pos[0] = geom.Point{} // source at the centre
	sample := uniformRadius
	if cfg.Profile != nil {
		sample = profileSampler(cfg.Profile)
	}
	for i := 1; i < n; i++ {
		rr := field * sample(rng)
		th := 2 * math.Pi * rng.Float64()
		pos[i] = geom.Point{X: rr * math.Cos(th), Y: rr * math.Sin(th)}
	}
	return pos, nil
}

// Build indexes positions placed for cfg: the neighbour lists and, as
// cfg asks, the sensing lists and gain tables. It makes no random draw.
// The deployment keeps pos as its Pos.
func Build(cfg Config, pos []geom.Point) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	d := &Deployment{Pos: pos, R: cfg.R, FieldRadius: float64(cfg.P) * cfg.R}
	d.buildNeighbors(cfg.WithSensing, cfg.GainAlpha)
	return d, nil
}

// Bytes is the size of the deployment's position and index slices:
// their lengths times their element sizes, slice headers included.
func (d *Deployment) Bytes() int64 {
	const header = 24 // a slice header: pointer, length, capacity
	b := int64(len(d.Pos)) * 16
	for _, lists := range [][][]int32{d.Neighbors, d.Sensing} {
		for _, l := range lists {
			b += header + 4*int64(len(l))
		}
	}
	for _, gains := range [][][]float64{d.Gains, d.SensingGains} {
		for _, g := range gains {
			b += header + 8*int64(len(g))
		}
	}
	return b
}

// GainFormula names the arithmetic PathGain evaluates. Gain values
// differ between formulas in their last bits, so every job whose
// results read the gain tables carries it in its fingerprint: a new
// formula re-keys exactly those jobs and no others.
const GainFormula = "x=dd/r2; alpha=3: 1/(x*sqrt(x)); else pow(x,-alpha/2)"

// PathGain is the normalised path-loss gain at squared distance dd for
// squared range r2 and exponent alpha: (d/R)^-alpha computed directly
// from the squared quantities, x^(-alpha/2) with x = dd/r2. Coincident
// points are clamped to a tiny positive squared distance so the gain
// stays a large finite number instead of +Inf (whose interference
// arithmetic would produce NaN). α = 3, the reference SINR exponent,
// takes the closed form 1/(x·√x) instead of math.Pow: three correctly
// rounded operations, so a relative error below 3·2⁻⁵³ (under 3 ulp),
// and exact at the range edge (x = 1) and at 2R (x = 4). Exposed so
// brute-force cross-checks can reproduce the precomputed tables bit
// for bit.
func PathGain(dd, r2, alpha float64) float64 {
	if dd < 1e-12*r2 {
		dd = 1e-12 * r2
	}
	x := dd / r2
	//lint:ignore floateq alpha is a configured exponent, not a computed value; only exactly 3 has this closed form
	if alpha == 3 {
		return 1 / (x * math.Sqrt(x))
	}
	return math.Pow(x, -0.5*alpha)
}

// uniformRadius samples a normalised radius for a uniform disk:
// r ~ sqrt(U).
func uniformRadius(rng *rand.Rand) float64 {
	return math.Sqrt(rng.Float64())
}

// profileSampler builds a normalised-radius sampler whose density at
// radius r is proportional to profile(r)·r (the r factor accounts for
// ring circumference), using rejection sampling against the weight's
// maximum on a fine grid.
func profileSampler(profile func(float64) float64) func(*rand.Rand) float64 {
	const probes = 256
	maxW := 0.0
	for i := 0; i <= probes; i++ {
		r := float64(i) / probes
		if w := profile(r) * r; w > maxW {
			maxW = w
		}
	}
	if maxW <= 0 {
		return uniformRadius
	}
	return func(rng *rand.Rand) float64 {
		for {
			r := rng.Float64()
			if w := profile(r) * r; w >= 0 && rng.Float64()*maxW < w {
				return r
			}
		}
	}
}

// latticePositions returns the square-lattice points inside the field
// disk, source first. The spacing sits just below the transmission
// radius so lattice neighbours are unambiguously in range and
// diagonals unambiguously out.
func latticePositions(field, r float64) []geom.Point {
	spacing := 0.999 * r
	max := int(field / spacing)
	pos := []geom.Point{{}} // source at the origin
	for i := -max; i <= max; i++ {
		for j := -max; j <= max; j++ {
			if i == 0 && j == 0 {
				continue
			}
			p := geom.Point{X: float64(i) * spacing, Y: float64(j) * spacing}
			if p.Norm() <= field {
				pos = append(pos, p)
			}
		}
	}
	return pos
}

// buildNeighbors fills the neighbour (and optionally sensing) lists with
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
func (d *Deployment) buildNeighbors(withSensing bool, gainAlpha float64) {
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
	idx := newGridIndex(d.Pos, reach)
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

// Degree returns the neighbour count of node i.
func (d *Deployment) Degree(i int) int { return len(d.Neighbors[i]) }

// AvgDegree returns the mean neighbour count over all nodes.
func (d *Deployment) AvgDegree() float64 {
	if len(d.Pos) == 0 {
		return 0
	}
	sum := 0
	for i := range d.Pos {
		sum += len(d.Neighbors[i])
	}
	return float64(sum) / float64(len(d.Pos))
}

// ReachableFromSource returns the number of nodes (including the source)
// connected to node 0 in the communication graph: the ceiling on any
// broadcast scheme's reachability.
func (d *Deployment) ReachableFromSource() int {
	n := len(d.Pos)
	if n == 0 {
		return 0
	}
	seen := make([]bool, n)
	seen[0] = true
	queue := []int32{0}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range d.Neighbors[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count
}

// RingOf returns the 1-indexed ring of node i under the paper's P-ring
// partition of the field.
func (d *Deployment) RingOf(i int) int {
	rp := geom.RingPartition{R: d.R, P: int(math.Round(d.FieldRadius / d.R))}
	return rp.RingOf(d.Pos[i].Norm())
}

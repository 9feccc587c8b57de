package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"sensornet/internal/deploy"
	"sensornet/internal/geom"
)

// Pool shares built deployments between the runs of a job set that
// replay the same placement: runs on one Seed+i ladder whose channel
// models read the same lists (CFM and CAM the plain ones, SINR the
// sensing lists with gains) place their nodes identically, because
// placement is the first thing a run draws. A pooled run still replays
// placement from its own seed, so its protocol stream is exactly
// Run's, and it fails unless the replayed positions are bit-equal to
// the pooled ones; only the index build, which draws nothing, is
// shared.
//
// Callers register every run they will make before making it; the pool
// keeps a built index only while registered runs still need it, and
// only within a byte cap. A nil *Pool pools nothing: its Run is Run.
type Pool struct {
	limit int64

	mu      sync.Mutex
	pending map[poolKey]int // registered runs not yet started
	entries map[poolKey]*poolEntry
	held    int64 // bytes of the kept entries
	builds  int
}

// poolKey identifies a deployment by everything that fixes it: the
// deployment config and the seed placement replays from.
type poolKey struct {
	P, N              int
	R, Rho, GainAlpha float64
	Grid, WithSensing bool
	Seed              int64
}

// poolEntry is one deployment build. ready closes once dep and err are
// final; until then other runs wait for it.
type poolEntry struct {
	ready chan struct{}
	dep   *deploy.Deployment
	err   error
	bytes int64 // charged to Pool.held while the entry is kept
}

// errBuildAborted is what waiters see when a pooled build never
// finished (it panicked).
var errBuildAborted = errors.New("sim: pooled deployment build aborted")

// NewPool returns an empty pool that keeps at most limit bytes of built
// index (deploy.Deployment.Bytes) at a time. A build that would exceed
// the limit serves the runs already waiting for it and is dropped.
func NewPool(limit int64) *Pool {
	return &Pool{limit: limit, pending: map[poolKey]int{}, entries: map[poolKey]*poolEntry{}}
}

// PoolStats is a snapshot of a pool's work and holdings.
type PoolStats struct {
	// Builds counts the deployments built for the pool's runs, pooled
	// or not.
	Builds int
	// Entries and Bytes are the deployments kept, and their size.
	Entries int
	Bytes   int64
}

// Stats reports the pool's builds so far and what it holds now.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Builds: p.builds, Entries: len(p.entries), Bytes: p.held}
}

// keyOf returns the pool key of a run with defaults applied, and false
// when the run cannot share a build: it brings its own deployment, or
// its deployment config has a Profile, whose sampler has no comparable
// identity.
func keyOf(cfg *Config) (poolKey, bool) {
	dc := deployConfig(cfg)
	if cfg.Deployment != nil || dc.Profile != nil {
		return poolKey{}, false
	}
	return poolKey{P: dc.P, N: dc.N, R: dc.R, Rho: dc.Rho, GainAlpha: dc.GainAlpha,
		Grid: dc.Grid, WithSensing: dc.WithSensing, Seed: cfg.Seed}, true
}

// Register announces one run of cfg that will later go through Run. A
// build is kept only while registered runs of its key remain; a run the
// caller never makes (a cached or cancelled cell) holds its build until
// the pool itself is dropped.
func (p *Pool) Register(cfg Config) {
	cfg.applyDefaults()
	if key, ok := keyOf(&cfg); ok {
		p.mu.Lock()
		p.pending[key]++
		p.mu.Unlock()
	}
}

// deployment returns the built deployment for a run whose config is
// already defaulted, placing its nodes from rng first. On a nil pool,
// or for a run the pool cannot share, it builds a fresh one.
func (p *Pool) deployment(cfg *Config, rng *rand.Rand) (*deploy.Deployment, error) {
	if cfg.Deployment != nil {
		return cfg.Deployment, nil
	}
	dc := deployConfig(cfg)
	pos, err := deploy.Place(dc, rng)
	if err != nil {
		return nil, err
	}
	key, ok := keyOf(cfg)
	if p == nil || !ok {
		return deploy.Build(dc, pos)
	}
	e, build := p.take(key)
	if e == nil {
		return deploy.Build(dc, pos)
	}
	if build {
		p.fill(key, e, dc, pos)
	} else {
		<-e.ready
	}
	if e.err != nil {
		return nil, e.err
	}
	if !samePositions(pos, e.dep.Pos) {
		return nil, fmt.Errorf("sim: pooled deployment for seed %d differs from the replayed placement", key.Seed)
	}
	return e.dep, nil
}

// take starts one run of key: it consumes a registration, counts the
// build the run will cause, and returns the entry to use, with build
// set when the caller must fill it. A nil entry means the run builds
// for itself: no later registered run needs the deployment.
func (p *Pool) take(key poolKey) (e *poolEntry, build bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	left := p.pending[key] - 1
	if left > 0 {
		p.pending[key] = left
	} else {
		delete(p.pending, key)
	}
	e, found := p.entries[key]
	switch {
	case found && left <= 0:
		// The last registered run takes the entry out of the pool.
		delete(p.entries, key)
		p.held -= e.bytes
	case !found && left > 0:
		e = &poolEntry{ready: make(chan struct{}), err: errBuildAborted}
		p.entries[key] = e
		p.builds++
		build = true
	case !found:
		p.builds++
	}
	return e, build
}

// fill builds e's deployment outside the lock, then keeps the entry if
// it is still pooled and fits under the limit, and releases its
// waiters. A failed or oversized build is dropped: later runs of the
// key try again, each building at most once, as without a pool.
func (p *Pool) fill(key poolKey, e *poolEntry, dc deploy.Config, pos []geom.Point) {
	defer close(e.ready)
	defer func() {
		p.mu.Lock()
		if p.entries[key] == e {
			if size := e.size(); e.err != nil || p.held+size > p.limit {
				delete(p.entries, key)
			} else {
				e.bytes = size
				p.held += size
			}
		}
		p.mu.Unlock()
	}()
	e.dep, e.err = deploy.Build(dc, pos)
}

func (e *poolEntry) size() int64 {
	if e.dep == nil {
		return 0
	}
	return e.dep.Bytes()
}

// samePositions reports whether a and b hold bit-identical positions.
func samePositions(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/optimize"
)

// The serving table. Each published data set — the analytic and sim
// (ρ, p) surfaces and the shootout — is one table: a map of strong
// ETags, fixed at construction, and a snapshot of pre-encoded 200
// bodies under the same keys. A warm server answers every data
// request from the snapshot: the data set loaded ONCE through the
// engine and every response it can serve encoded to its exact wire
// bytes. The snapshot is published through an atomic pointer, so
// steady-state requests are a single atomic load, one map lookup and
// a []byte write — lock-free, alloc-light, zero cache reads.
//
// Cold tables coalesce: concurrent requests that find no snapshot
// elect one leader to run the engine load while the rest wait on the
// same buildCall, so N racing cold requests cost one pass over the
// cache. A failed build (rows unpublished, the cache-only engine
// reports Missing) is never stored — each wave of requests retries,
// preserving the "shards publish later, requests start succeeding"
// behaviour — and on a forced refresh the last good snapshot stays
// published until a newer build succeeds.
//
// A build renders only data that changed. Every body is a pure
// function of the table and the one value its load reads, so a load
// whose value hashes to the published snapshot's digest keeps that
// snapshot and encodes nothing. The digest hashes the value itself,
// typed: every float by its bits, every string and slice with its
// length. The load itself always runs: a refresh still rebuilds the
// job set and reads every job through the cache, so a missing row
// fails it as before.

// key addresses one response shape: the route ("optimal", "surface"
// or "shootout"), its filter (the metric or the channel model, "" for
// none) and the index of the queried density in the table's
// densities, -1 for every density. It is comparable, so a request's
// lookup allocates nothing.
type key struct {
	route, filter string
	rho           int
}

// bodies maps every servable key to its pre-encoded 200 body. A key
// with an ETag but no body is an infeasible optimum.
type bodies map[key][]byte

// snapshot is one published state of a table, immutable once built:
// its bodies and the digest of the value they were rendered from.
type snapshot struct {
	bodies bodies
	digest [sha256.Size]byte
}

// table is one published data set.
type table struct {
	name  string // the surface= value naming it in queries and refreshes
	rhos  []float64
	etags map[key]string
	// load reads the data set through the engine and returns the
	// digest of the one value its bodies are rendered from, with the
	// function that renders them.
	load  func(ctx context.Context) (digest [sha256.Size]byte, render func() (bodies, error), err error)
	store store[snapshot]
}

// rhoIndex finds the queried density among the table's. Densities are
// grid values echoed back by clients, so matching is by small absolute
// tolerance rather than float equality.
func (t *table) rhoIndex(rho float64) (int, bool) {
	for i, r := range t.rhos {
		if math.Abs(r-rho) < 1e-9 {
			return i, true
		}
	}
	return 0, false
}

// build publishes a fresh snapshot (coalesced with any build in
// flight) loaded on loadCtx; ctx bounds only this caller's wait.
func (t *table) build(ctx, loadCtx context.Context, force bool) (*snapshot, error) {
	return t.store.build(ctx, func() (*snapshot, error) { return t.loadSnapshot(loadCtx) }, force)
}

// loadSnapshot loads the table and renders its bodies, unless the loaded
// value's digest equals the published snapshot's: then it returns the
// published snapshot. Only a build's leader calls it, so the published
// snapshot cannot change meanwhile.
func (t *table) loadSnapshot(ctx context.Context) (*snapshot, error) {
	digest, render, err := t.load(ctx)
	if err != nil {
		return nil, err
	}
	if old := t.store.get(); old != nil && old.digest == digest {
		return old, nil
	}
	b, err := render()
	if err != nil {
		return nil, err
	}
	return &snapshot{bodies: b, digest: digest}, nil
}

// valueDigest accumulates the render gate's digest of a table's value.
// It is exact: a body is a pure function of the table and the value,
// and the encoding is injective on everything a body can show. Floats
// enter by their bits, so -0 and 0 differ as they do in JSON; strings
// and slices are length-prefixed, and a slice or map whose nil-ness a
// body can show has it hashed too. A float a body must encode as a
// JSON number fails the digest when it is NaN or infinite, exactly
// where the render would fail.
type valueDigest struct {
	b   []byte
	err error
}

func (d *valueDigest) u64(x uint64) { d.b = binary.LittleEndian.AppendUint64(d.b, x) }

// number hashes a float a body encodes as a JSON number.
func (d *valueDigest) number(x float64) {
	if (math.IsNaN(x) || math.IsInf(x, 0)) && d.err == nil {
		d.err = fmt.Errorf("serve: unsupported value %v: a JSON number must be finite", x)
	}
	d.u64(math.Float64bits(x))
}

// nullable hashes a float a body encodes as null when it is NaN, as
// optimize.Wire does: a presence byte, then the bits of a present one.
func (d *valueDigest) nullable(x float64) {
	if math.IsNaN(x) {
		d.b = append(d.b, 0)
		return
	}
	d.b = append(d.b, 1)
	d.number(x)
}

func (d *valueDigest) str(s string) {
	d.u64(uint64(len(s)))
	d.b = append(d.b, s...)
}

// size hashes a slice's or map's length and whether it is nil, which
// JSON tells apart (null against [] or {}).
func (d *valueDigest) size(n int, isNil bool) {
	if isNil {
		d.b = append(d.b, 0)
		return
	}
	d.b = append(d.b, 1)
	d.u64(uint64(n))
}

func (d *valueDigest) sum() ([sha256.Size]byte, error) {
	if d.err != nil {
		return [sha256.Size]byte{}, d.err
	}
	return sha256.Sum256(d.b), nil
}

// surfaceDigest is the digest of a surface's rows: each row's length,
// then each point's P and its six metrics, a NaN metric reading null.
// The rows' nil-ness never reaches a body: optimize.Wire returns a
// non-nil row for every row.
func surfaceDigest(rows [][]optimize.Point) ([sha256.Size]byte, error) {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	// 8 bytes per length, 62 per point: P and six present metrics.
	d := valueDigest{b: make([]byte, 0, 8*(1+len(rows))+62*n)}
	d.u64(uint64(len(rows)))
	for _, row := range rows {
		d.u64(uint64(len(row)))
		for _, pt := range row {
			d.number(pt.P)
			d.nullable(pt.ReachAtL)
			d.nullable(pt.Latency)
			d.nullable(pt.Broadcasts)
			d.nullable(pt.ReachAtBudget)
			d.nullable(pt.SuccessRate)
			d.nullable(pt.Final)
		}
	}
	return d.sum()
}

// surfaceTable serves one preset's (ρ, p) surface: every optimum per
// (metric, ρ), every per-ρ row and the full dump.
func surfaceTable(eng *engine.Engine, name string, pre experiments.Preset, simulated bool) *table {
	digest := jobsDigest(experiments.SurfaceJobs(pre, simulated, 1))
	t := &table{name: name, rhos: pre.Rhos, etags: map[key]string{
		{"surface", "", -1}: etagOf("surface", digest, "all"),
	}}
	for i, rho := range pre.Rhos {
		t.etags[key{"surface", "", i}] = etagOf("surface", digest, rhoKey(rho))
		for _, sel := range optimize.Selectors() {
			t.etags[key{"optimal", sel.Name, i}] = etagOf("optimal", digest, sel.Name, rhoKey(rho))
		}
	}
	loadSurface := experiments.AnalyticSurfaceCtx
	if simulated {
		loadSurface = experiments.SimSurfaceCtx
	}
	t.load = func(ctx context.Context) ([sha256.Size]byte, func() (bodies, error), error) {
		surf, err := loadSurface(ctx, eng, pre)
		if err != nil {
			return [sha256.Size]byte{}, nil, err
		}
		digest, err := surfaceDigest(surf.Points)
		return digest, func() (bodies, error) {
			var rows [][]optimize.WirePoint
			for _, row := range surf.Points {
				rows = append(rows, optimize.Wire(row))
			}
			return surfaceBodies(name, pre.S, pre.Rhos, rows)
		}, err
	}
	return t
}

// surfaceBodies runs every metric's argmax over a surface's wire rows,
// one per density in rhos, and pre-encodes each body it can serve.
// name is the canonical surface query value echoed in the bodies.
func surfaceBodies(name string, s int, rhos []float64, rows [][]optimize.WirePoint) (bodies, error) {
	b := bodies{}
	full := surfaceBody{Surface: name, S: s, Rhos: rhos, Rows: rows}
	for i, rho := range rhos {
		pts := optimize.Points(rows[i])
		for _, sel := range optimize.Selectors() {
			opt, ok := sel.Pick(pts)
			if !ok {
				continue
			}
			if err := b.put(key{"optimal", sel.Name, i}, optimalBody{
				Surface: name, Metric: sel.Name, Rho: rho, S: s, P: opt.P, Value: opt.Value,
			}); err != nil {
				return nil, err
			}
		}
		if err := b.put(key{"surface", "", i}, surfaceBody{
			Surface: name, S: s, Rhos: []float64{rho}, Rows: rows[i : i+1],
		}); err != nil {
			return nil, err
		}
	}
	if err := b.put(key{"surface", "", -1}, full); err != nil {
		return nil, err
	}
	return b, nil
}

// shootoutModels lists the shootout's channel models by query name.
func shootoutModels() []string {
	var names []string
	for _, m := range experiments.ShootoutModels() {
		names = append(names, m.String())
	}
	return names
}

// shootoutTable serves the cross-scheme shootout over the sim preset
// at rhos (experiments.DefaultShootoutRhos when empty): the full
// cross, one channel model's rows, one density's rows, or one
// (model, ρ) cell. It fails if the campaign itself is invalid.
func shootoutTable(eng *engine.Engine, pre experiments.Preset, rhos []float64) (*table, error) {
	if len(rhos) == 0 {
		rhos = experiments.DefaultShootoutRhos()
	}
	jobs, err := experiments.ShootoutJobs(pre, rhos)
	if err != nil {
		return nil, err
	}
	// The digest hashes the ordered fingerprints of the campaign's
	// jobs, which encode every parameter that can change a cached cell.
	digest := jobsDigest(jobs)
	t := &table{name: "shootout", rhos: rhos, etags: map[key]string{}}
	for _, m := range append([]string{""}, shootoutModels()...) {
		t.etags[key{"shootout", m, -1}] = etagOf("shootout", digest, m+"|")
		for i, rho := range rhos {
			t.etags[key{"shootout", m, i}] = etagOf("shootout", digest, m+"|"+rhoKey(rho))
		}
	}
	t.load = func(ctx context.Context) ([sha256.Size]byte, func() (bodies, error), error) {
		data, err := experiments.ShootoutDataCtx(ctx, eng, pre, rhos)
		if err != nil {
			return [sha256.Size]byte{}, nil, err
		}
		digest, err := shootoutDigest(data)
		return digest, func() (bodies, error) {
			b := bodies{}
			for k := range t.etags {
				if err := b.put(k, shootoutFilter(data, k)); err != nil {
					return nil, err
				}
			}
			return b, nil
		}, err
	}
	return t, nil
}

// shootoutDigest is the digest of the shootout's data: its model names
// and densities, then each row's model, density, schemes (key, display
// name and the seven aggregates) and Best in sorted key order. Bodies
// narrow the model and density axes by index, so only the nil-ness of
// a row's schemes and Best reaches one.
func shootoutDigest(data *experiments.ShootoutData) ([sha256.Size]byte, error) {
	var d valueDigest
	d.u64(uint64(len(data.Models)))
	for _, m := range data.Models {
		d.str(m)
	}
	d.u64(uint64(len(data.Rhos)))
	for _, rho := range data.Rhos {
		d.number(rho)
	}
	d.u64(uint64(len(data.Rows)))
	var keys []string
	for _, row := range data.Rows {
		d.str(row.Model)
		d.number(row.Rho)
		d.size(len(row.Schemes), row.Schemes == nil)
		for _, s := range row.Schemes {
			d.str(s.Scheme)
			d.str(s.Display)
			for _, x := range [...]float64{s.Coverage, s.ReachAtL, s.Settle,
				s.Broadcasts, s.Delivered, s.LostColl, s.SuccessRate} {
				d.number(x)
			}
		}
		d.size(len(row.Best), row.Best == nil)
		keys = keys[:0]
		for k := range row.Best {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			d.str(k)
			d.str(row.Best[k])
		}
	}
	return d.sum()
}

// shootoutBody is the JSON shape of every /api/shootout response: the
// (possibly narrowed) model and density axes plus the matching rows.
type shootoutBody struct {
	Models []string                  `json:"models"`
	Rhos   []float64                 `json:"rhos"`
	Rows   []experiments.ShootoutRow `json:"rows"`
}

// shootoutFilter narrows the campaign to k's model and density. Rows
// are model-major over the densities, so they are matched by index.
func shootoutFilter(data *experiments.ShootoutData, k key) shootoutBody {
	var body shootoutBody
	for i, rho := range data.Rhos {
		if k.rho < 0 || k.rho == i {
			body.Rhos = append(body.Rhos, rho)
		}
	}
	for m, model := range data.Models {
		if k.filter != "" && k.filter != model {
			continue
		}
		body.Models = append(body.Models, model)
		for i := range data.Rhos {
			if k.rho < 0 || k.rho == i {
				body.Rows = append(body.Rows, data.Rows[m*len(data.Rhos)+i])
			}
		}
	}
	return body
}

// put pre-encodes v as the body served under k.
func (b bodies) put(k key, v any) error {
	enc, err := encodeJSON(v)
	b[k] = enc
	return err
}

// encodeJSON renders v exactly as writeJSON puts it on the wire —
// two-space indent, trailing newline — so pre-encoded snapshot bodies
// are byte-identical to per-request encoding.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildCall is one in-progress snapshot build; waiters share its
// outcome instead of racing their own engine loads.
type buildCall[T any] struct {
	done chan struct{}
	snap *T
	err  error
}

// store publishes one table's snapshot with coalesced builds and
// last-good-stays semantics.
type store[T any] struct {
	snap     atomic.Pointer[T]
	mu       sync.Mutex
	inflight *buildCall[T]
}

// get is the steady-state fast path: one atomic load, no locks.
func (st *store[T]) get() *T { return st.snap.Load() }

// join decides this caller's role: an already-published snapshot (with
// force unset) short-circuits, an in-flight call is joined as a
// follower, and otherwise the caller registers a fresh call as leader.
func (st *store[T]) join(force bool) (snap *T, c *buildCall[T], leader bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !force {
		if s := st.snap.Load(); s != nil {
			return s, nil, false
		}
	}
	if st.inflight != nil {
		return nil, st.inflight, false
	}
	st.inflight = &buildCall[T]{done: make(chan struct{})}
	return nil, st.inflight, true
}

// publish installs the leader's outcome — the snapshot swap on
// success, nothing on failure (the last good snapshot stays) — and
// wakes every follower.
func (st *store[T]) publish(c *buildCall[T]) {
	st.mu.Lock()
	st.inflight = nil
	if c.err == nil {
		st.snap.Store(c.snap)
	}
	st.mu.Unlock()
	close(c.done)
}

// build returns a snapshot, coalescing concurrent builders: the leader
// runs buildFn, everyone else waits on the shared call (or their own
// ctx). With force unset a snapshot published meanwhile is returned
// without building; with force set a build always runs (joining one
// already in flight), and on failure the previously published snapshot
// stays in place.
func (st *store[T]) build(ctx context.Context, buildFn func() (*T, error), force bool) (*T, error) {
	snap, c, leader := st.join(force)
	if snap != nil {
		return snap, nil
	}
	if !leader {
		select {
		case <-c.done:
			return c.snap, c.err
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	c.snap, c.err = buildFn()
	st.publish(c)
	return c.snap, c.err
}

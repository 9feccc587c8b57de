package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/optimize"
)

// The serving table. Each published data set — the analytic and sim
// (ρ, p) surfaces and the shootout — is one table: a map of strong
// ETags, fixed at construction, and the pre-encoded 200 bodies under
// the same keys. A warm server answers every data request from the
// bodies: the data set loaded ONCE through the engine and every
// response it can serve encoded to its exact wire bytes. The bodies
// are published through an atomic pointer, so steady-state requests
// are a single atomic load, one map lookup and a []byte write —
// lock-free, alloc-light, zero cache reads.
//
// Publication is final. Every body is a pure function of its strong
// ETag, and the ETags are fixed by the job fingerprints, which the
// cache never rebinds, so a table once published cannot change: the
// pointer goes from nil to set exactly once, and a refresh loads only
// the tables still cold.
//
// Cold tables coalesce: concurrent requests that find no bodies elect
// one leader to run the engine load while the rest wait on the same
// buildCall, so N racing cold requests cost one pass over the cache. A
// failed load (rows unpublished, the cache-only engine reports
// Missing) is never stored — each wave of requests retries, preserving
// the "shards publish later, requests start succeeding" behaviour.

// key addresses one response shape: the route ("optimal", "surface"
// or "shootout"), its filter (the metric or the channel model, "" for
// none) and the index of the queried density in the table's
// densities, -1 for every density. It is comparable, so a request's
// lookup allocates nothing.
type key struct {
	route, filter string
	rho           int
}

// bodies maps every servable key to its pre-encoded 200 body,
// immutable once built. A key with an ETag but no body is an
// infeasible optimum.
type bodies map[key][]byte

// table is one published data set.
type table struct {
	name  string // the surface= value naming it in queries and refreshes
	rhos  []float64
	etags map[key]string
	// load reads the data set through the engine and renders its bodies.
	load func(ctx context.Context) (bodies, error)
	// published is nil until a load succeeds, then its bodies for good.
	published atomic.Pointer[bodies]
	mu        sync.Mutex // guards inflight
	inflight  *buildCall
}

// buildCall is one in-progress load; waiters share its outcome instead
// of racing their own engine loads.
type buildCall struct {
	done   chan struct{}
	bodies bodies
	err    error
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

// build returns the table's bodies. A published table answers with
// one atomic load. A cold one loads on loadCtx, coalesced: the first
// caller leads the load and the rest wait on its call, ctx bounding
// only their own wait. A failed load publishes nothing, so the next
// caller retries.
func (t *table) build(ctx, loadCtx context.Context) (bodies, error) {
	if b := t.published.Load(); b != nil {
		return *b, nil
	}
	b, c, leader := t.join()
	switch {
	case b != nil:
		return *b, nil
	case !leader:
		select {
		case <-c.done:
			return c.bodies, c.err
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	c.bodies, c.err = t.load(loadCtx)
	t.mu.Lock()
	t.inflight = nil
	if c.err == nil {
		t.published.Store(&c.bodies)
	}
	t.mu.Unlock()
	close(c.done)
	return c.bodies, c.err
}

// join returns the bodies a load published meanwhile, or else the load
// in flight and whether this caller registered it, and so leads it.
func (t *table) join() (*bodies, *buildCall, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b := t.published.Load(); b != nil {
		return b, nil, false
	}
	if t.inflight != nil {
		return nil, t.inflight, false
	}
	t.inflight = &buildCall{done: make(chan struct{})}
	return nil, t.inflight, true
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
	t.load = func(ctx context.Context) (bodies, error) {
		surf, err := loadSurface(ctx, eng, pre)
		if err != nil {
			return nil, err
		}
		var rows [][]optimize.WirePoint
		for _, row := range surf.Points {
			rows = append(rows, optimize.Wire(row))
		}
		return surfaceBodies(name, pre.S, pre.Rhos, rows)
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
	t.load = func(ctx context.Context) (bodies, error) {
		data, err := experiments.ShootoutDataCtx(ctx, eng, pre, rhos)
		if err != nil {
			return nil, err
		}
		b := bodies{}
		for k := range t.etags {
			if err := b.put(k, shootoutFilter(data, k)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	return t, nil
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

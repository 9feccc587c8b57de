// Package serve answers tuning queries — optimal (s, p) operating
// points and surface slices — strictly from cached experiment
// surfaces.
//
// The server wraps a cache-only engine (engine.Config.CacheOnly): a
// query whose surface rows are in the content-addressed cache is
// answered without recomputing anything, and a query whose rows are
// missing fails with 503 and the list of unpublished jobs — unless the
// engine carries an admission Budget, in which case misses may be
// filled write-through within that budget. Warm data sets are served
// from an in-memory table of pre-encoded bodies (see store.go):
// steady-state hits never touch the cache at all.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"sensornet/internal/engine"
	"sensornet/internal/experiments"
	"sensornet/internal/optimize"
)

// Server is the HTTP query layer over cached surfaces.
//
// Endpoints:
//
//	GET  /healthz                  liveness + cache/snapshot/budget state
//	GET  /api/cache                engine CacheStats counters
//	GET  /api/metrics              the optimisation metric registry
//	GET  /api/optimal?surface=analytic|sim&metric=<name>&rho=<density>
//	GET  /api/surface?surface=analytic|sim[&rho=<density>]
//	GET  /api/shootout[?model=<name>][&rho=<density>]
//	POST /api/refresh[?surface=analytic|sim|shootout]   build cold snapshots
type Server struct {
	eng *engine.Engine
	// tables are the analytic and sim surfaces, then the shootout: the
	// order /api/refresh reports them in.
	tables []*table
	mux    *http.ServeMux
	// baseCtx bounds snapshot builds. Builds are coalesced across
	// requests, so they run on the server's context, not the leader
	// request's: a dropped leader client must not cancel the build its
	// followers are waiting on.
	baseCtx context.Context
}

// Option customises a Server beyond the two surface presets.
type Option func(*options)

type options struct {
	shootRhos []float64
}

// WithShootoutRhos sets the densities of the shootout campaign the
// server publishes on /api/shootout. An empty or absent list picks
// experiments.DefaultShootoutRhos. The list must match what the shard
// or worker processes computed — like the presets, it pins the job
// fingerprints the server reads.
func WithShootoutRhos(rhos []float64) Option {
	return func(o *options) { o.shootRhos = rhos }
}

// NewCtx builds a Server over eng, which must be cache-only — the
// serving contract is "answers come from the cache, never from
// unbounded recomputation" (an engine.Budget may admit bounded
// write-through fills) — and should carry the same cache (and presets)
// the shard processes populated. ctx bounds coalesced snapshot builds;
// cancel it to abort in-flight builds at shutdown. The shootout
// surface uses the sim preset; an invalid shootout campaign (a
// non-positive density, a preset without replications) is an error.
func NewCtx(ctx context.Context, eng *engine.Engine, analytic, sim experiments.Preset, opts ...Option) (*Server, error) {
	if !eng.CacheOnly() {
		return nil, errors.New("serve: engine must be cache-only (engine.Config.CacheOnly)")
	}
	if eng.Shard().Sharded() {
		return nil, errors.New("serve: engine must be unsharded: serving reads every shard's cached rows")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	shoot, err := shootoutTable(eng, sim, o.shootRhos)
	if err != nil {
		return nil, fmt.Errorf("serve: shootout: %w", err)
	}
	s := &Server{
		eng: eng,
		tables: []*table{
			surfaceTable(eng, "analytic", analytic, false),
			surfaceTable(eng, "sim", sim, true),
			shoot,
		},
		mux:     http.NewServeMux(),
		baseCtx: ctx,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /api/cache", s.handleCache)
	s.mux.HandleFunc("GET /api/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/optimal", s.handleOptimal)
	s.mux.HandleFunc("GET /api/surface", s.handleSurface)
	s.mux.HandleFunc("GET /api/shootout", s.handleShootout)
	s.mux.HandleFunc("POST /api/refresh", s.handleRefresh)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Warm eagerly builds every snapshot — both surfaces and the shootout
// — so a server started over a populated cache pays its cache reads
// before the first request. The cold tables load side by side, each
// through the server's engine as a request's load would, so one
// table's encoding overlaps another's cache reads. Every table is
// attempted; those whose rows are not yet published are left cold
// (their requests keep retrying), and the first error in table order
// is returned for logging.
func (s *Server) Warm(ctx context.Context) error {
	errs := make([]error, len(s.tables))
	loads := engine.New(engine.Config{Workers: len(s.tables)})
	_, err := engine.Map(ctx, loads, "warm", s.tables, func(ctx context.Context, t *table, i int) (struct{}, error) {
		_, errs[i] = t.build(ctx, ctx)
		return struct{}{}, nil
	})
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lint:ignore errdrop the status line is already out; nothing to recover, the client sees a truncated body
	_ = enc.Encode(v)
}

// writeRaw sends a pre-encoded JSON body (see encodeJSON for the byte
// contract shared with writeJSON).
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

type errorBody struct {
	Error string `json:"error"`
	// MissingJobs lists unpublished cache entries on a 503 (capped).
	MissingJobs []string `json:"missingJobs,omitempty"`
}

// fail maps an error onto the API's status contract: a cache-only
// MissingError is 503 Service Unavailable (the data may simply not be
// published yet), everything else is the given fallback status.
func fail(w http.ResponseWriter, err error, fallback int) {
	if missing, jobs := missingJobs(err); missing != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: missing.Error(), MissingJobs: jobs})
		return
	}
	writeJSON(w, fallback, errorBody{Error: err.Error()})
}

// missingJobs finds a cache-only MissingError in err and names its
// unpublished jobs, capped at maxListed; missing is nil for any other
// error.
func missingJobs(err error) (missing *engine.MissingError, jobs []string) {
	if !errors.As(err, &missing) {
		return nil, nil
	}
	const maxListed = 20
	for i, j := range missing.Jobs {
		if i == maxListed {
			return missing, append(jobs, "...")
		}
		jobs = append(jobs, j.Name)
	}
	return missing, jobs
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snapshots := make(map[string]bool, len(s.tables))
	for _, t := range s.tables {
		snapshots[t.name] = t.published.Load() != nil
	}
	body := map[string]any{
		"status":    "ok",
		"cacheOnly": true,
		"hasCache":  s.eng.Cache() != nil,
		"snapshots": snapshots,
	}
	if b := s.eng.Budget(); b != nil {
		body["budget"] = b.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	c := s.eng.Cache()
	if c == nil {
		fail(w, errors.New("serve: no cache configured"), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, c.Stats())
}

type metricBody struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sels := optimize.Selectors()
	out := make([]metricBody, len(sels))
	for i, sel := range sels {
		out[i] = metricBody{Name: sel.Name, Description: sel.Description}
	}
	writeJSON(w, http.StatusOK, out)
}

// refreshResult reports one surface's refresh outcome.
type refreshResult struct {
	Surface     string   `json:"surface"`
	OK          bool     `json:"ok"`
	Error       string   `json:"error,omitempty"`
	MissingJobs []string `json:"missingJobs,omitempty"`
}

// lookup finds the table named name among tables.
func lookup(tables []*table, name string) *table {
	for _, t := range tables {
		if t.name == name {
			return t
		}
	}
	return nil
}

// handleRefresh builds the snapshots still cold — after shards publish
// their rows, hit this instead of restarting the server. A published
// snapshot is final (see store.go), so it reports ok without a cache
// read; a cold one that fails to build reports its error and missing
// jobs. Every table is the default; surface=analytic|sim|shootout
// narrows it.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	tables := s.tables
	if name := r.URL.Query().Get("surface"); name != "" {
		t := lookup(s.tables, name)
		if t == nil {
			fail(w, fmt.Errorf("serve: surface=%q: want analytic, sim or shootout", name), http.StatusBadRequest)
			return
		}
		tables = []*table{t}
	}
	status := http.StatusOK
	out := make([]refreshResult, len(tables))
	for i, t := range tables {
		out[i] = refreshResult{Surface: t.name, OK: true}
		if _, err := t.build(r.Context(), s.baseCtx); err != nil {
			status = http.StatusServiceUnavailable
			out[i] = refreshResult{Surface: t.name, Error: err.Error()}
			_, out[i].MissingJobs = missingJobs(err)
		}
	}
	writeJSON(w, status, out)
}

// surface resolves a surface= value to its (ρ, p) table.
func (s *Server) surface(name string) (*table, error) {
	if t := lookup(s.tables[:2], name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("serve: surface=%q: want analytic or sim", name)
}

// answer serves t's body under k: a 304 when the request's validator
// names k's ETag (before any snapshot access — or, cold, any cache
// read), else the snapshot's bytes, building the snapshot first when
// the table is cold. If-None-Match: * matches only a current
// representation, so it answers 304 only once the snapshot shows k has
// a body. Builds are coalesced and run on the server's base context;
// the request context only bounds this caller's wait. answer reports
// false, having written nothing, when k has an ETag but no body: an
// infeasible optimum, which the caller answers 404.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, t *table, k key) bool {
	etag := t.etags[k]
	exact, wildcard := ifNoneMatch(r.Header.Get("If-None-Match"), etag)
	if exact {
		notModified(w, etag)
		return true
	}
	b, err := t.build(r.Context(), s.baseCtx)
	if err != nil {
		fail(w, err, http.StatusInternalServerError)
		return true
	}
	body, ok := b[k]
	switch {
	case !ok:
		return false
	case wildcard:
		notModified(w, etag)
	default:
		w.Header().Set("ETag", etag)
		writeRaw(w, http.StatusOK, body)
	}
	return true
}

// parseRho parses a rho= query value.
func parseRho(raw string) (float64, error) {
	if raw == "" {
		return 0, errors.New("serve: missing rho parameter")
	}
	rho, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: rho=%q: %v", raw, err)
	}
	// ParseFloat accepts "NaN" and "Inf", which can never match a grid
	// density: reject them here with a clear 400 instead of letting them
	// fall through to a confusing unknown-rho 404.
	if math.IsNaN(rho) || math.IsInf(rho, 0) {
		return 0, fmt.Errorf("serve: rho=%q: must be a finite number", raw)
	}
	return rho, nil
}

// optimalBody is the answer to a tuning query: the (s, p) operating
// point optimising the metric at the density, and the achieved value.
// Rho echoes the preset's canonical density (the one the query matched
// within tolerance), keeping the body a pure function of the ETag.
type optimalBody struct {
	Surface string  `json:"surface"`
	Metric  string  `json:"metric"`
	Rho     float64 `json:"rho"`
	S       int     `json:"s"`
	P       float64 `json:"p"`
	Value   float64 `json:"value"`
}

func (s *Server) handleOptimal(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sel, ok := optimize.SelectorByName(q.Get("metric"))
	if !ok {
		fail(w, fmt.Errorf("serve: unknown metric %q (see /api/metrics)", q.Get("metric")), http.StatusBadRequest)
		return
	}
	rho, err := parseRho(q.Get("rho"))
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	t, err := s.surface(q.Get("surface"))
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	i, ok := t.rhoIndex(rho)
	if !ok {
		fail(w, fmt.Errorf("serve: rho=%g not in the preset densities %v", rho, t.rhos), http.StatusNotFound)
		return
	}
	if !s.answer(w, r, t, key{"optimal", sel.Name, i}) {
		fail(w, fmt.Errorf("serve: no feasible grid point for metric %q at rho=%g", sel.Name, rho), http.StatusNotFound)
	}
}

type surfaceBody struct {
	Surface string                 `json:"surface"`
	S       int                    `json:"s"`
	Rhos    []float64              `json:"rhos"`
	Rows    [][]optimize.WirePoint `json:"rows"`
}

func (s *Server) handleSurface(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	t, err := s.surface(q.Get("surface"))
	if err != nil {
		fail(w, err, http.StatusBadRequest)
		return
	}
	k := key{route: "surface", rho: -1}
	if raw := q.Get("rho"); raw != "" {
		rho, err := parseRho(raw)
		if err != nil {
			fail(w, err, http.StatusBadRequest)
			return
		}
		i, ok := t.rhoIndex(rho)
		if !ok {
			fail(w, fmt.Errorf("serve: rho=%g not in the preset densities %v", rho, t.rhos), http.StatusNotFound)
			return
		}
		k.rho = i
	}
	s.answer(w, r, t, k)
}

// handleShootout answers GET /api/shootout[?model=<name>][&rho=<density>]
// from the shootout table.
func (s *Server) handleShootout(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	t := s.tables[2]
	k := key{route: "shootout", filter: q.Get("model"), rho: -1}
	if _, ok := t.etags[k]; !ok {
		fail(w, fmt.Errorf("serve: model=%q: want one of %v", k.filter, shootoutModels()), http.StatusBadRequest)
		return
	}
	if raw := q.Get("rho"); raw != "" {
		rho, err := parseRho(raw)
		if err != nil {
			fail(w, err, http.StatusBadRequest)
			return
		}
		i, ok := t.rhoIndex(rho)
		if !ok {
			fail(w, fmt.Errorf("serve: rho=%g not in the shootout densities %v", rho, t.rhos), http.StatusNotFound)
			return
		}
		k.rho = i
	}
	s.answer(w, r, t, k)
}

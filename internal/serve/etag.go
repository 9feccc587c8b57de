package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"

	"sensornet/internal/engine"
)

// ETags are content-addressed, like everything else in the serving
// path: a table's identity is the ordered list of its job
// fingerprints, which already encode every parameter that can change a
// cached result (presets, grids, code-version salt). A response body is
// a pure function of that digest plus the normalised query parameters,
// so the ETag is a strong validator — and because cache entries are
// immutable under their fingerprints, a validator once issued never
// goes stale. That is what lets If-None-Match short-circuit BEFORE any
// cache read: a match proves the client already holds the exact bytes.

// jobsDigest hashes the ordered fingerprints of the jobs behind a
// table.
func jobsDigest(jobs []engine.Job) string {
	h := sha256.New()
	for _, j := range jobs {
		h.Write([]byte(j.Fingerprint()))
		h.Write([]byte{0x1f})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// etagOf derives the quoted strong ETag for one response shape from
// the table digest and the normalised query parameters.
func etagOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0x1f})
	}
	return `"` + hex.EncodeToString(h.Sum(nil)) + `"`
}

// rhoKey normalises a density for ETag derivation, so 60, 60.0 and 6e1
// validate against the same entity.
func rhoKey(rho float64) string { return strconv.FormatFloat(rho, 'g', -1, 64) }

// ifNoneMatch classifies an If-None-Match header against etag. The
// header is a comma-separated list of entity tags, or *. exact reports
// a strong match of a listed tag (weak tags, W/..., never strong-match);
// wildcard reports a * that is all that could match. A * matches only
// a current representation, which the caller must look up.
func ifNoneMatch(header, etag string) (exact, wildcard bool) {
	if header == "" {
		return false, false
	}
	for _, c := range strings.Split(header, ",") {
		switch strings.TrimSpace(c) {
		case etag:
			return true, false
		case "*":
			wildcard = true
		}
	}
	return false, wildcard
}

// notModified answers 304 with etag. Handlers set the ETag header
// themselves on their 200 path, so error responses carry no validator.
func notModified(w http.ResponseWriter, etag string) {
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusNotModified)
}

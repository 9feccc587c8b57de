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

// etagMatch implements the strong If-None-Match comparison: the header
// is a comma-separated list of entity tags, or *. Weak tags (W/...)
// never strong-match.
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// notModified answers 304 if the request's If-None-Match matches etag,
// reporting whether the handler is done. Handlers set the ETag header
// themselves on their 200 path, so error responses carry no validator.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

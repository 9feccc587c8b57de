package engine

import (
	"encoding/json"
	"fmt"
)

// ResultSink is the result-ingest surface a remote executor posts
// through: a coordinator that receives computed payloads over the wire
// lands them here so they become indistinguishable from locally stored
// results. *Cache implements it — IngestResult appends the exact disk
// record Put would append, so a campaign merged from remotely posted
// results is byte-identical to one computed in-process.
type ResultSink interface {
	// HasResult reports whether a valid stored result exists for the
	// fingerprint. It never computes and never decodes the payload.
	HasResult(fingerprint string) bool
	// IngestResult stores raw payload bytes (the job codec's encoding)
	// under the fingerprint. The payload must be valid JSON — the same
	// constraint Put enforces before writing disk entries.
	IngestResult(fingerprint string, payload []byte) error
}

// HasResult implements ResultSink: a fingerprint has a result when it
// is live in memory (decoded or raw) or has a disk record whose
// envelope names it under this cache's salt. Unusable records met on
// the way are dropped and counted as on the read path.
func (c *Cache) HasResult(fingerprint string) bool {
	if c == nil || fingerprint == "" {
		return false
	}
	k := c.key(fingerprint)
	return c.inMemory(k) || (c.dir != "" && c.diskFind(k, fingerprint, nil))
}

// inMemory reports whether k is live in memory, decoded or raw.
func (c *Cache) inMemory(k key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, inMem := c.mem[k]
	_, inRaw := c.raw[k]
	return inMem || inRaw
}

// IngestResult implements ResultSink. The payload is kept in the raw
// in-memory layer (promoted to a decoded value on the next Get) and,
// when a directory is configured, appended to disk through the same
// record path Put uses — so remotely computed entries are
// byte-identical to local ones.
//
// Ingest is idempotent by content addressing: a fingerprint that is
// live in memory, or has a valid record among those already indexed,
// is not stored again — the duplicate is counted
// (CacheStats.IngestDupes) and dropped, which keeps a replayed or
// duplicated wire delivery from appending a second record. The indexed
// records are read and validated, so a corrupt one is dropped and the
// payload stored in its place, but the index is not refreshed: an
// ingest costs no directory listing. A record another process appended
// since the last refresh can therefore be stored a second time, which
// content addressing makes harmless — readers take the first usable
// record. Distributed callers dedupe by job state before ingesting, so
// a nonzero IngestDupes count means a duplicate slipped past the
// protocol layer.
func (c *Cache) IngestResult(fingerprint string, payload []byte) error {
	if c == nil {
		return fmt.Errorf("engine: ingest into a nil cache")
	}
	if fingerprint == "" {
		return fmt.Errorf("engine: ingest with an empty fingerprint")
	}
	if !json.Valid(payload) {
		return fmt.Errorf("engine: ingest %q: payload is not valid JSON", fingerprint)
	}
	k := c.key(fingerprint)
	if c.inMemory(k) || (c.dir != "" && c.findIndexed(k, fingerprint, nil)) {
		c.mu.Lock()
		c.ingestDupes++
		c.mu.Unlock()
		return nil
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	c.mu.Lock()
	c.raw[k] = buf
	c.stores++
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	return c.storeDisk(k, fingerprint, payload)
}

// EncodeResult serialises a job's computed value with the job's own
// codec: the exact payload bytes Put stores on disk, and therefore the
// exact bytes a remote worker must post back so the coordinator's cache
// stays byte-identical to a local run. Jobs without an encoder (or
// without a Codec at all) cannot publish remotely.
func EncodeResult(job Job, v any) ([]byte, error) {
	encode, _ := codecOf(job)
	if encode == nil {
		return nil, fmt.Errorf("engine: job %q has no result encoder", job.Name())
	}
	payload, err := encode(v)
	if err != nil {
		return nil, fmt.Errorf("engine: encoding result of job %q: %w", job.Name(), err)
	}
	if !json.Valid(payload) {
		return nil, fmt.Errorf("engine: job %q encoded a non-JSON payload", job.Name())
	}
	return payload, nil
}

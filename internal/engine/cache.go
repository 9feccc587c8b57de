package engine

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Cache is a content-addressed result store with two layers: an
// in-memory map holding live result values, and an optional on-disk
// store that survives across processes. Entries are addressed by
// sha256(salt ‖ fingerprint), so changing the code-version salt
// invalidates every prior entry at once.
//
// The disk store is a directory of append-only segments. On its first
// disk store each Cache creates a segment of its own, so no two writers
// ever share one, and it appends every entry to it as one record, in a
// single write:
//
//	<hex key> <length>\n<envelope>\n
//
// The envelope is compact JSON, so a record is two lines. Records are
// never rewritten or deleted. Readers keep a lazily built index from
// key to record location; a lookup miss refreshes it by listing the
// directory and scanning only the headers appended since the last
// scan. Every read checks the envelope's fingerprint and salt. A
// record in the exact bytes the store writes starts with the canonical
// head for them, so only its payload is scanned, once, before the
// decoder takes it; any other record is parsed whole (see readRecord).
// An unusable record is counted, reported and dropped from this
// cache's index, and the recompute's appended record supersedes it.
type Cache struct {
	dir  string
	salt string

	// Warnf, when non-nil, receives diagnostics about recoverable disk
	// problems (corrupt records treated as misses). Defaults to
	// log.Printf; set to a no-op to silence.
	Warnf func(format string, args ...any)

	mu          sync.Mutex
	mem         map[key]any
	raw         map[key][]byte   // ingested payloads not yet decoded
	index       map[key][]record // disk records, in scan order
	hits        int
	misses      int
	stores      int
	corrupt     int
	ingestDupes int

	// segMu guards seg, this cache's own segment.
	segMu sync.Mutex
	seg   *os.File

	// scanMu serializes index refreshes; it guards segs and scanBuf.
	scanMu  sync.Mutex
	segs    map[string]*segment
	scanBuf *bufio.Reader
}

// key is a content address: sha256(salt ‖ 0x1f ‖ fingerprint).
type key [sha256.Size]byte

// segSuffix names segment files. Anything else in the directory is
// ignored, including the one-file-per-entry JSON layout of earlier
// versions, whose jobs recompute.
const segSuffix = ".seg"

// envelope is the on-disk cache entry format. The fingerprint is
// retained verbatim so an address-level hash collision (or a salt
// mix-up) is detected on read instead of silently returning a wrong
// result.
type envelope struct {
	Fingerprint string          `json:"fingerprint"`
	Salt        string          `json:"salt"`
	Payload     json.RawMessage `json:"payload"`
}

// record locates one envelope inside a segment.
type record struct {
	seg *segment
	off int64 // offset of the envelope
	n   int64 // envelope length
}

// segment is the scan state of one segment file.
type segment struct {
	f    *os.File
	size int64 // file size at the last scan
	next int64 // offset of the first record not yet indexed
	// broken marks a header or terminator no append can complete: the
	// segment is not scanned again.
	broken bool
	// tail is the key of the incomplete or misframed record at next,
	// when its header parsed: a torn append, or one still in flight.
	// tailReported records that a lookup counted it.
	tail                  key
	hasTail, tailReported bool
}

// NewCache returns a cache salted with the given code-version string.
// A non-empty dir enables the on-disk layer rooted there (created on
// first store).
func NewCache(dir, salt string) *Cache {
	return &Cache{dir: dir, salt: salt,
		mem: make(map[key]any), raw: make(map[key][]byte),
		index: make(map[key][]record), segs: make(map[string]*segment)}
}

// key computes the content address of a fingerprint under the cache's
// salt, sha256(salt ‖ 0x1f ‖ fingerprint), in one hash over a stack
// buffer; a salt and fingerprint longer than the buffer spill to the
// heap.
func (c *Cache) key(fingerprint string) key {
	var buf [256]byte
	return sha256.Sum256(append(append(append(buf[:0], c.salt...), 0x1f), fingerprint...))
}

// Get looks a fingerprint up, first in memory (decoded values, then
// raw ingested payloads), then (when decode is non-nil and a directory
// is configured) on disk. Raw and disk hits are promoted into the
// decoded memory layer.
func (c *Cache) Get(fingerprint string, decode func([]byte) (any, error)) (any, bool) {
	if c == nil || fingerprint == "" {
		return nil, false
	}
	k := c.key(fingerprint)
	c.mu.Lock()
	if v, ok := c.mem[k]; ok {
		c.hits++
		c.mu.Unlock()
		return v, true
	}
	payload, hasRaw := c.raw[k]
	c.mu.Unlock()

	if hasRaw && decode != nil {
		if v, err := decode(payload); err == nil {
			c.mu.Lock()
			c.mem[k] = v
			delete(c.raw, k)
			c.hits++
			c.mu.Unlock()
			return v, true
		}
		// An undecodable ingested payload degrades to a miss, exactly
		// like a corrupt disk record.
		c.mu.Lock()
		c.corrupt++
		delete(c.raw, k)
		c.mu.Unlock()
	}

	if c.dir != "" && decode != nil {
		var v any
		accept := func(p []byte) (err error) {
			v, err = decode(p)
			return err
		}
		if c.diskFind(k, fingerprint, accept) {
			c.mu.Lock()
			c.mem[k] = v
			c.hits++
			c.mu.Unlock()
			return v, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// diskFind reports whether a disk record for k holds an envelope of
// fingerprint under this cache's salt whose payload accept (when
// non-nil) takes. It tries k's indexed records in order, dropping and
// reporting each unusable one, then refreshes the index once and tries
// the new ones. A lookup that finds nothing reports the record for k,
// if any, at which a segment's scan stopped: a torn append.
func (c *Cache) diskFind(k key, fingerprint string, accept func([]byte) error) bool {
	if c.findIndexed(k, fingerprint, accept) {
		return true
	}
	c.refresh()
	if c.findIndexed(k, fingerprint, accept) {
		return true
	}
	c.scanMu.Lock()
	torn := 0
	for _, s := range c.segs {
		if s.hasTail && !s.tailReported && s.tail == k {
			s.tailReported = true
			torn++
		}
	}
	c.scanMu.Unlock()
	for i := 0; i < torn; i++ {
		c.reportCorrupt(k, fingerprint, errors.New("torn or misframed record ends a segment"))
	}
	return false
}

// findIndexed is diskFind over the records already indexed, without a
// refresh.
func (c *Cache) findIndexed(k key, fingerprint string, accept func([]byte) error) bool {
	c.mu.Lock()
	recs := c.index[k]
	c.mu.Unlock()
	for _, r := range recs {
		err := c.readRecord(r, fingerprint, accept)
		if err == nil {
			return true
		}
		if c.drop(k, r) {
			c.reportCorrupt(k, fingerprint, err)
		}
	}
	return false
}

// readRecord reads r's envelope and checks that it names fingerprint
// under this cache's salt and, when accept is non-nil, that accept
// takes its payload.
//
// A record storeDisk wrote is its envelope's canonical head, the
// payload and a closing brace, and readRecord takes that shape without
// parsing the envelope: when the record starts with the head for
// fingerprint and this salt, ends in '}', and what lies between is,
// but for surrounding whitespace, one valid JSON value shorter than
// maxFastPayload, that value is the payload a full decode would find
// under those names. Any other record, or a payload accept rejects,
// goes through the full decode, so a read takes exactly the records
// it took before the fast path. The buffer is fresh per read, because
// accept may keep the payload slice.
func (c *Cache) readRecord(r record, fingerprint string, accept func([]byte) error) error {
	buf := make([]byte, r.n)
	if _, err := r.seg.f.ReadAt(buf, r.off); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	var headBuf [256]byte
	if head, ok := appendEnvelopeHead(headBuf[:0], fingerprint, c.salt); ok &&
		len(buf) > len(head) && buf[len(buf)-1] == '}' && bytes.HasPrefix(buf, head) {
		payload := bytes.Trim(buf[len(head):len(buf)-1], jsonSpace)
		if len(payload) < maxFastPayload && json.Valid(payload) &&
			(accept == nil || accept(payload) == nil) {
			return nil
		}
	}
	var env envelope
	if err := json.Unmarshal(buf, &env); err != nil {
		return fmt.Errorf("unmarshal: %w", err)
	}
	if env.Fingerprint != fingerprint || env.Salt != c.salt {
		return errors.New("fingerprint/salt mismatch")
	}
	if accept != nil {
		if err := accept(env.Payload); err != nil {
			return fmt.Errorf("decode payload: %w", err)
		}
	}
	return nil
}

// jsonSpace is the whitespace JSON allows around a value.
const jsonSpace = " \t\r\n"

// maxFastPayload bounds the payloads readRecord checks apart from
// their envelope. encoding/json rejects nesting deeper than 10000
// levels, and inside the envelope a payload sits one level down, so a
// payload nested exactly 10000 deep is valid alone but not in its
// record. Such a payload needs at least 20000 bytes, so a shorter one
// is valid alone exactly when its record is.
const maxFastPayload = 2 * 10000

// appendEnvelopeHead appends to dst the bytes storeDisk's json.Marshal
// of an envelope for fingerprint under salt writes before the payload,
//
//	{"fingerprint":<fingerprint>,"salt":<salt>,"payload":
//
// It reports false when either string is not valid UTF-8: Marshal
// replaces such bytes, so the record names another fingerprint or
// salt, which the full decode reports.
func appendEnvelopeHead(dst []byte, fingerprint, salt string) ([]byte, bool) {
	if !utf8.ValidString(fingerprint) || !utf8.ValidString(salt) {
		return dst, false
	}
	dst = appendJSONString(append(dst, `{"fingerprint":`...), fingerprint)
	dst = appendJSONString(append(dst, `,"salt":`...), salt)
	return append(dst, `,"payload":`...), true
}

// appendJSONString appends s, which must be valid UTF-8, quoted as
// encoding/json's Marshal quotes it: '"' and '\\' escaped by a
// backslash, \b, \f, \n, \r and \t by name, the other control
// characters and '<', '>' and '&' as \u00XX, and U+2028 and U+2029 as
// \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == '\u2028' || r == '\u2029' {
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
				start = i + size
			}
			i += size
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// drop removes r from k's indexed records, reporting whether it was
// still there: of several readers that found r unusable, one drops it.
// Readers may still hold the old slice, so it is copied, not edited.
func (c *Cache) drop(k key, r record) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := c.index[k]
	i := slices.Index(recs, r)
	switch {
	case i < 0:
		return false
	case len(recs) == 1:
		delete(c.index, k)
	default:
		c.index[k] = slices.Delete(slices.Clone(recs), i, i+1)
	}
	return true
}

// reportCorrupt counts and logs an unusable disk record: a torn append
// from a killed process, a stale format, or an address collision. The
// lookup degrades to a miss and the job recomputes, so corruption never
// fails a job; the bytes stay on disk.
func (c *Cache) reportCorrupt(k key, fingerprint string, reason error) {
	c.mu.Lock()
	c.corrupt++
	warnf := c.Warnf
	c.mu.Unlock()
	if warnf == nil {
		warnf = log.Printf
	}
	warnf("engine: cache record %x (fingerprint %q) is corrupt, treating as a miss: %v",
		k[:], fingerprint, reason)
}

// refresh indexes the records appended to the directory's segments
// since the last refresh.
func (c *Cache) refresh() {
	c.scanMu.Lock()
	defer c.scanMu.Unlock()
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return // no directory yet: nothing stored
	}
	if c.scanBuf == nil {
		c.scanBuf = bufio.NewReaderSize(nil, 16<<10)
	}
	add := func(k key, r record) {
		c.mu.Lock()
		c.index[k] = append(c.index[k], r)
		c.mu.Unlock()
	}
	for _, e := range ents {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		s := c.segs[name]
		if s == nil {
			f, err := os.Open(filepath.Join(c.dir, name))
			if err != nil {
				continue
			}
			s = &segment{f: f}
			c.segs[name] = s
		}
		s.scan(c.scanBuf, add)
	}
}

// scan indexes, through add, the complete records appended to s since
// its last scan, reading each header and skipping its envelope
// unparsed. It stops at a record still incomplete, to retry it on the
// next scan, and for good at a header or terminator that is malformed.
func (s *segment) scan(br *bufio.Reader, add func(key, record)) {
	if s.broken {
		return
	}
	fi, err := s.f.Stat()
	if err != nil || fi.Size() == s.size {
		return
	}
	s.size = fi.Size()
	br.Reset(io.NewSectionReader(s.f, s.next, s.size-s.next))
	for s.next < s.size {
		line, err := br.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return // a header still being appended, or torn
		}
		k, n, ok := parseHeader(line)
		if !ok {
			s.broken = true
			return
		}
		off := s.next + int64(len(line))
		s.tail, s.hasTail = k, true
		if n > s.size-off-1 {
			return // the envelope is still being appended, or torn
		}
		if _, err := br.Discard(int(n)); err != nil {
			return
		}
		if b, err := br.ReadByte(); err != nil || b != '\n' {
			s.broken = err == nil
			return
		}
		add(k, record{seg: s, off: off, n: n})
		s.next = off + n + 1
		s.hasTail, s.tailReported = false, false
	}
}

// parseHeader parses a record header line, "<hex key> <length>\n".
func parseHeader(line []byte) (k key, n int64, ok bool) {
	const hexLen = 2 * len(k)
	if len(line) < hexLen+3 || line[hexLen] != ' ' || line[len(line)-1] != '\n' {
		return k, 0, false
	}
	if _, err := hex.Decode(k[:], line[:hexLen]); err != nil {
		return k, 0, false
	}
	u, err := strconv.ParseUint(string(line[hexLen+1:len(line)-1]), 10, 63)
	return k, int64(u), err == nil
}

// appendRecord appends env framed as a segment record under k to dst.
func appendRecord(dst []byte, k key, env []byte) []byte {
	dst = hex.AppendEncode(dst, k[:])
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(env)), 10)
	dst = append(dst, '\n')
	dst = append(dst, env...)
	return append(dst, '\n')
}

// Put stores a result under a fingerprint. When encode is non-nil and
// a directory is configured, the entry is also written to disk; encode
// failures degrade to memory-only caching rather than failing the job.
func (c *Cache) Put(fingerprint string, v any, encode func(any) ([]byte, error)) {
	if c == nil || fingerprint == "" {
		return
	}
	k := c.key(fingerprint)
	c.mu.Lock()
	c.mem[k] = v
	c.stores++
	c.mu.Unlock()

	if c.dir == "" || encode == nil {
		return
	}
	payload, err := encode(v)
	if err != nil || !json.Valid(payload) {
		return
	}
	//lint:ignore errdrop disk failures deliberately degrade to memory-only caching; the result is already in mem and the job must not fail over a full disk
	_ = c.storeDisk(k, fingerprint, payload)
}

// storeDisk appends one envelope to this cache's segment. It is the
// single disk-write path — Put and IngestResult both funnel through
// it, which is what makes remotely posted results byte-identical to
// locally computed ones.
func (c *Cache) storeDisk(k key, fingerprint string, payload []byte) error {
	env, err := json.Marshal(envelope{Fingerprint: fingerprint, Salt: c.salt, Payload: payload})
	if err != nil {
		return err
	}
	f, err := c.ownSegment()
	if err != nil {
		return err
	}
	// One write per record: a reader sees a record whole, or an
	// incomplete tail it retries, never two records interleaved.
	if _, err := f.Write(appendRecord(make([]byte, 0, len(env)+96), k, env)); err != nil {
		// The failed write may have left a torn record; later appends
		// go to a fresh segment instead of behind it.
		c.segMu.Lock()
		if c.seg == f {
			c.seg = nil
		}
		c.segMu.Unlock()
		f.Close()
		return err
	}
	return nil
}

// ownSegment returns this cache's segment, creating it on first use.
func (c *Cache) ownSegment() (*os.File, error) {
	c.segMu.Lock()
	defer c.segMu.Unlock()
	if c.seg == nil {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.CreateTemp(c.dir, "*"+segSuffix)
		if err != nil {
			return nil, err
		}
		c.seg = f
	}
	return c.seg, nil
}

// CacheStats reports cache effectiveness counters. Corrupt counts disk
// records that could not be read back (torn appends, stale formats,
// identity mismatches) and were dropped as misses. IngestDupes counts
// IngestResult calls for fingerprints already live in memory or valid
// among the indexed disk records — duplicate wire deliveries absorbed
// without storing again. A record another process appended since the
// index's last refresh is not seen, so its duplicate is stored, not
// counted.
type CacheStats struct {
	Hits, Misses, Stores int
	Corrupt              int
	IngestDupes          int
}

// Stats returns the cache's counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Stores: c.stores,
		Corrupt: c.corrupt, IngestDupes: c.ingestDupes}
}

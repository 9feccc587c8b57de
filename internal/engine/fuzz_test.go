package engine

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// FuzzCacheDiskEntry feeds arbitrary bytes to the cache's disk read
// path as a segment in the cache directory. HasResult and Get must
// never panic and must serve only a complete, well-formed record for
// one fixed fingerprint and salt. Every other record under its key — a
// torn tail, a stale format, another fingerprint's or salt's envelope,
// garbage — must count as Corrupt once, and a record under another key
// counts nothing. Afterwards a valid ingest must read back from memory
// and through a fresh cache.
func FuzzCacheDiskEntry(f *testing.F) {
	const fp, salt = "fuzz-fingerprint", "fuzz-salt"
	decode := func(b []byte) (any, error) {
		var v *float64
		if err := json.Unmarshal(b, &v); err != nil {
			return nil, err
		}
		if v == nil {
			return nil, errors.New("null payload")
		}
		return *v, nil
	}
	f.Fuzz(func(t *testing.T, seg []byte) {
		c := NewCache(t.TempDir(), salt)
		c.Warnf = func(string, ...any) {}
		if err := os.WriteFile(filepath.Join(c.dir, "fuzz"+segSuffix), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		want := expectSegment(seg, c.key(fp), fp, salt, decode)

		if has := c.HasResult(fp); has != want.has {
			t.Fatalf("HasResult = %v, want %v", has, want.has)
		}
		v, hit := c.Get(fp, decode)
		if hit != want.hit {
			t.Fatalf("Get hit = %v, want %v (HasResult %v)", hit, want.hit, want.has)
		}
		if hit && v != want.v {
			t.Fatalf("Get = %v, want the decoded payload %v", v, want.v)
		}
		if s := c.Stats(); s.Corrupt != want.corrupt {
			t.Fatalf("Corrupt = %d, want %d", s.Corrupt, want.corrupt)
		}
		if hit {
			return
		}
		if c.HasResult(fp) {
			t.Fatal("HasResult true after every record was found unusable")
		}
		if s := c.Stats(); s.Corrupt != want.corrupt {
			t.Fatalf("Corrupt = %d after a second lookup, want %d (each record counts once)", s.Corrupt, want.corrupt)
		}

		// The key heals: a valid ingest reads back, from memory and from
		// disk through a fresh cache.
		if err := c.IngestResult(fp, []byte("2.5")); err != nil {
			t.Fatal(err)
		}
		fresh := NewCache(c.dir, salt)
		fresh.Warnf = func(string, ...any) {}
		for _, cache := range []*Cache{c, fresh} {
			if v, ok := cache.Get(fp, decode); !ok || v != 2.5 {
				t.Fatalf("ingested payload reads back as %v, %v; want 2.5", v, ok)
			}
		}
	})
}

// segmentOutcome is what a cache must make of one segment for one
// fingerprint.
type segmentOutcome struct {
	has, hit bool
	v        any
	corrupt  int
}

// recordHeader is the segment record header, "<hex key> <length>\n".
var recordHeader = regexp.MustCompile(`^([0-9a-fA-F]{64}) ([0-9]+)\n$`)

// expectSegment is the fuzz oracle, written apart from the cache's
// scanner: it parses seg record by record up to the first one that is
// malformed or incomplete, and applies the read rules to k's records.
func expectSegment(seg []byte, k key, fp, salt string, decode func([]byte) (any, error)) segmentOutcome {
	var envs [][]byte // k's complete records, in order
	tornK := false    // the scan ends at an unfinished record under k
	for {
		nl := bytes.IndexByte(seg, '\n')
		if nl < 0 {
			break
		}
		m := recordHeader.FindSubmatch(seg[:nl+1])
		if m == nil {
			break
		}
		n, err := strconv.ParseUint(string(m[2]), 10, 63)
		if err != nil {
			break
		}
		hk, _ := hex.DecodeString(string(m[1]))
		body := seg[nl+1:]
		if n >= uint64(len(body)) || body[n] != '\n' {
			tornK = bytes.Equal(hk, k[:])
			break
		}
		if bytes.Equal(hk, k[:]) {
			envs = append(envs, body[:n])
		}
		seg = body[n+1:]
	}

	var out segmentOutcome
	for i, raw := range envs {
		var env envelope
		if json.Unmarshal(raw, &env) != nil || env.Fingerprint != fp || env.Salt != salt {
			continue
		}
		out.has = true
		if v, err := decode(env.Payload); err == nil {
			out.hit, out.v, out.corrupt = true, v, i
			return out
		}
	}
	out.corrupt = len(envs)
	if tornK {
		out.corrupt++
	}
	return out
}

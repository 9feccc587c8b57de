package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

func jsonCodec() (func(any) ([]byte, error), func([]byte) (any, error)) {
	encode := func(v any) ([]byte, error) { return json.Marshal(v) }
	decode := func(b []byte) (any, error) {
		var v float64
		err := json.Unmarshal(b, &v)
		return v, err
	}
	return encode, decode
}

func TestCacheMemoryRoundTrip(t *testing.T) {
	c := NewCache("", "salt")
	if _, ok := c.Get("k", nil); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("k", 3.5, nil)
	v, ok := c.Get("k", nil)
	if !ok || v != 3.5 {
		t.Fatalf("got %v %v", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCacheKeyMatchesStreamingHash pins the one-call key to the
// streaming sha256 of salt ‖ 0x1f ‖ fingerprint, so no record's disk
// address moves: on random fingerprints, empty and non-ASCII ones, and
// salts and fingerprints longer than the key's stack buffer.
func TestCacheKeyMatchesStreamingHash(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fps := []string{"", "analytic-point(rho=60,p=0.2)", "ρ=60·p=0.2", "\xff\x00\x1f", strings.Repeat("x", 1000)}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		fps = append(fps, string(b))
	}
	for _, salt := range []string{"", "salt", strings.Repeat("s", 300)} {
		c := NewCache("", salt)
		for _, fp := range fps {
			h := sha256.New()
			h.Write([]byte(salt))
			h.Write([]byte{0x1f})
			h.Write([]byte(fp))
			if got, want := c.key(fp), h.Sum(nil); !bytes.Equal(got[:], want) {
				t.Fatalf("salt %q, fingerprint %q: key %x, want %x", salt, fp, got, want)
			}
		}
	}
}

func TestCacheDiskPersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	encode, decode := jsonCodec()

	first := NewCache(dir, "salt")
	first.Put("fp", 2.25, encode)

	// A fresh instance (cold memory layer) must hit via disk.
	second := NewCache(dir, "salt")
	v, ok := second.Get("fp", decode)
	if !ok || v != 2.25 {
		t.Fatalf("disk layer miss: %v %v", v, ok)
	}
	// And promote the value into memory: a nil decoder now suffices.
	v, ok = second.Get("fp", nil)
	if !ok || v != 2.25 {
		t.Fatalf("promotion failed: %v %v", v, ok)
	}
}

func TestCacheSaltInvalidatesEntries(t *testing.T) {
	dir := t.TempDir()
	encode, decode := jsonCodec()
	NewCache(dir, "v1").Put("fp", 1.0, encode)
	if _, ok := NewCache(dir, "v2").Get("fp", decode); ok {
		t.Fatal("entry survived a salt bump")
	}
}

func TestCacheRejectsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	encode, decode := jsonCodec()
	c := NewCache(dir, "salt")
	c.Put("fp", 1.5, encode)

	// Replace the segment's one record with a complete record under the
	// same key whose envelope is not JSON.
	path := onlySegment(t, dir)
	if err := os.WriteFile(path, appendRecord(nil, c.key("fp"), []byte("{not json")), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewCache(dir, "salt")
	fresh.Warnf = func(string, ...any) {}
	if _, ok := fresh.Get("fp", decode); ok {
		t.Fatal("corrupt entry served")
	}
	if s := fresh.Stats(); s.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", s.Corrupt)
	}
}

func TestCacheEnvelopeFingerprintChecked(t *testing.T) {
	dir := t.TempDir()
	encode, decode := jsonCodec()
	c := NewCache(dir, "salt")
	c.Put("fp", 9.0, encode)

	// Rewrite the record claiming a different fingerprint: the address
	// matches but the identity check must reject it.
	path := onlySegment(t, dir)
	raw, _ := json.Marshal(envelope{Fingerprint: "other", Salt: "salt",
		Payload: json.RawMessage("9")})
	if err := os.WriteFile(path, appendRecord(nil, c.key("fp"), raw), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewCache(dir, "salt")
	fresh.Warnf = func(string, ...any) {}
	if _, ok := fresh.Get("fp", decode); ok {
		t.Fatal("mismatched fingerprint served")
	}
	if s := fresh.Stats(); s.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", s.Corrupt)
	}
}

// onlySegment returns the path of the one file in dir, which must be a
// segment.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || filepath.Ext(entries[0].Name()) != segSuffix {
		t.Fatalf("want one segment in %s, got %v (err %v)", dir, entries, err)
	}
	return filepath.Join(dir, entries[0].Name())
}

// segmentRecords parses a segment's two-line records, failing on any
// byte that is not part of a complete one.
func segmentRecords(t *testing.T, path string) map[key][][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[key][][]byte{}
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		k, n, ok := parseHeader(raw[:nl+1])
		if nl < 0 || !ok || n > int64(len(raw)-nl-2) || raw[nl+1+int(n)] != '\n' {
			t.Fatalf("%s: malformed record at %q", path, raw[:min(len(raw), 100)])
		}
		out[k] = append(out[k], raw[nl+1:nl+1+int(n)])
		raw = raw[nl+2+int(n):]
	}
	return out
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("fp", nil); ok {
		t.Fatal("nil cache hit")
	}
	c.Put("fp", 1, nil) // must not panic
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
}

func TestEngineDiskCacheSkipsRecomputeAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	var computes atomic.Int64
	mkJob := func() Job {
		return JobFunc{
			JobName:  "expensive",
			Key:      "expensive-key",
			EncodeFn: func(v any) ([]byte, error) { return json.Marshal(v) },
			DecodeFn: func(b []byte) (any, error) {
				var v string
				err := json.Unmarshal(b, &v)
				return v, err
			},
			Fn: func(context.Context) (any, error) {
				computes.Add(1)
				return "result", nil
			},
		}
	}
	for i := 0; i < 2; i++ {
		eng := New(Config{Workers: 2, Cache: NewCache(dir, "salt")})
		results, err := eng.Run(context.Background(), []Job{mkJob()})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Value != "result" {
			t.Fatalf("run %d: %v", i, results[0].Value)
		}
		if wantCached := i > 0; results[0].FromCache != wantCached {
			t.Fatalf("run %d: FromCache = %v, want %v", i, results[0].FromCache, wantCached)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times across engines, want 1", n)
	}
}

// TestCacheConcurrentAccess: concurrent Puts and Gets on one cache
// append every record whole to the cache's one segment.
func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(t.TempDir(), "salt")
	encode, decode := jsonCodec()
	eng := New(Config{Workers: 8})
	jobs := make([]Job, 64)
	for i := range jobs {
		i := i
		jobs[i] = JobFunc{JobName: fmt.Sprintf("c%d", i),
			Fn: func(context.Context) (any, error) {
				fp := fmt.Sprintf("fp%d", i%8)
				c.Put(fp, float64(i%8), encode)
				if v, ok := c.Get(fp, decode); ok {
					return v, nil
				}
				return nil, nil
			}}
	}
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	recs := segmentRecords(t, onlySegment(t, c.dir))
	total := 0
	for i := 0; i < 8; i++ {
		fp := fmt.Sprintf("fp%d", i)
		want, _ := json.Marshal(envelope{Fingerprint: fp, Salt: "salt", Payload: json.RawMessage(fmt.Sprint(i))})
		for _, env := range recs[c.key(fp)] {
			if !bytes.Equal(env, want) {
				t.Fatalf("%s: record %s, want %s", fp, env, want)
			}
		}
		total += len(recs[c.key(fp)])
	}
	if total != len(jobs) {
		t.Fatalf("segment holds %d records, want one per Put (%d)", total, len(jobs))
	}
}

// BenchmarkCacheDisk times the cache's disk layer at the size of a
// distributed PaperAnalytic campaign: 700 entries with ~400-byte
// payloads, a point's size. Put and Ingest store them through one
// cache into a fresh directory; ColdGet reads a filled directory back
// through a fresh cache.
func BenchmarkCacheDisk(b *testing.B) {
	const n = 700
	fps := make([]string, n)
	payloads := make([][]byte, n)
	for i := range fps {
		fps[i] = fmt.Sprintf("point(rho=%d,p=%d)", i/35, i%35)
		vals := make([]float64, 24)
		for j := range vals {
			vals[j] = float64(i*24+j) / 7
		}
		payloads[i], _ = json.Marshal(vals)
	}
	encode := func(v any) ([]byte, error) { return v.([]byte), nil }
	decode := func(p []byte) (any, error) { return p, nil }
	store := func(name string, put func(c *Cache, j int)) {
		b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := NewCache(b.TempDir(), "salt")
				b.StartTimer()
				for j := range fps {
					put(c, j)
				}
			}
		})
	}
	store("Put", func(c *Cache, j int) { c.Put(fps[j], payloads[j], encode) })
	store("Ingest", func(c *Cache, j int) {
		if err := c.IngestResult(fps[j], payloads[j]); err != nil {
			b.Fatal(err)
		}
	})
	b.Run(fmt.Sprintf("ColdGet/n=%d", n), func(b *testing.B) {
		dir := b.TempDir()
		fill := NewCache(dir, "salt")
		for j := range fps {
			fill.Put(fps[j], payloads[j], encode)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := NewCache(dir, "salt")
			for j := range fps {
				if _, ok := c.Get(fps[j], decode); !ok {
					b.Fatalf("cold Get of %s missed", fps[j])
				}
			}
		}
	})
}

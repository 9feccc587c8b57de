package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testCodec() (func(any) ([]byte, error), func([]byte) (any, error)) {
	encode := func(v any) ([]byte, error) { return json.Marshal(v) }
	decode := func(b []byte) (any, error) {
		var v float64
		err := json.Unmarshal(b, &v)
		return v, err
	}
	return encode, decode
}

// readDirFiles returns name → content for every file in dir.
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestIngestByteIdenticalToPut is the remote-execution byte-identity
// anchor at the cache layer: ingesting the encoded payload appends the
// exact same disk record (same key, same envelope bytes) as a local Put
// of the computed value.
func TestIngestByteIdenticalToPut(t *testing.T) {
	encode, _ := testCodec()
	const fp = "job-fingerprint"
	v := 42.5

	localDir, remoteDir := t.TempDir(), t.TempDir()
	local := NewCache(localDir, "salt-v1")
	local.Put(fp, v, encode)

	payload, err := encode(v)
	if err != nil {
		t.Fatal(err)
	}
	remote := NewCache(remoteDir, "salt-v1")
	if err := remote.IngestResult(fp, payload); err != nil {
		t.Fatal(err)
	}

	lb, err := os.ReadFile(onlySegment(t, localDir))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(onlySegment(t, remoteDir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(lb, []byte(fmt.Sprintf("%x ", local.key(fp)))) {
		t.Fatalf("local record is not under the fingerprint's key: %s", lb)
	}
	if !bytes.Equal(lb, rb) {
		t.Fatalf("ingested record differs from local Put:\n%s\nvs\n%s", lb, rb)
	}
}

func TestIngestHasResultAndGet(t *testing.T) {
	encode, decode := testCodec()
	c := NewCache(t.TempDir(), "s")
	const fp = "fp-1"
	if c.HasResult(fp) {
		t.Fatal("HasResult true before any store")
	}
	payload, _ := encode(7.25)
	if err := c.IngestResult(fp, payload); err != nil {
		t.Fatal(err)
	}
	if !c.HasResult(fp) {
		t.Fatal("HasResult false after ingest")
	}
	v, ok := c.Get(fp, decode)
	if !ok || v.(float64) != 7.25 {
		t.Fatalf("Get after ingest = %v, %v", v, ok)
	}
	// A fresh cache over the same dir sees the entry purely from disk.
	c2 := NewCache(c.dir, "s")
	if !c2.HasResult(fp) {
		t.Fatal("HasResult false from disk")
	}
	if v, ok := c2.Get(fp, decode); !ok || v.(float64) != 7.25 {
		t.Fatalf("disk Get after ingest = %v, %v", v, ok)
	}
}

// TestIngestMemoryOnly: with no directory configured the ingested raw
// payload still satisfies Get in-process.
func TestIngestMemoryOnly(t *testing.T) {
	_, decode := testCodec()
	c := NewCache("", "s")
	if err := c.IngestResult("fp", []byte("3.5")); err != nil {
		t.Fatal(err)
	}
	if !c.HasResult("fp") {
		t.Fatal("HasResult false after memory-only ingest")
	}
	if v, ok := c.Get("fp", decode); !ok || v.(float64) != 3.5 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
}

func TestIngestRejectsBadInput(t *testing.T) {
	c := NewCache(t.TempDir(), "s")
	if err := c.IngestResult("", []byte("1")); err == nil {
		t.Error("empty fingerprint accepted")
	}
	if err := c.IngestResult("fp", []byte("{not json")); err == nil {
		t.Error("invalid JSON payload accepted")
	}
	if c.HasResult("fp") {
		t.Error("rejected ingest left a result behind")
	}
	var nilCache *Cache
	if err := nilCache.IngestResult("fp", []byte("1")); err == nil {
		t.Error("nil cache accepted an ingest")
	}
	if nilCache.HasResult("fp") {
		t.Error("nil cache reports a result")
	}
}

// TestIngestDuplicateAbsorbed: re-ingesting a fingerprint that already
// has a valid result is a counted no-op — no second record is appended
// (the segment's bytes are unchanged) and IngestDupes records the
// absorbed duplicate.
func TestIngestDuplicateAbsorbed(t *testing.T) {
	_, decode := testCodec()
	c := NewCache(t.TempDir(), "s")
	if err := c.IngestResult("fp", []byte("1.5")); err != nil {
		t.Fatal(err)
	}
	before := readDirFiles(t, c.dir)
	if err := c.IngestResult("fp", []byte("1.5")); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.IngestDupes != 1 {
		t.Fatalf("IngestDupes = %d, want 1", s.IngestDupes)
	}
	if s.Stores != 1 {
		t.Fatalf("Stores = %d, want 1 (duplicate must not re-store)", s.Stores)
	}
	after := readDirFiles(t, c.dir)
	if len(before) != 1 || !reflect.DeepEqual(before, after) {
		t.Fatalf("the duplicate changed the segment: before %q, after %q", before, after)
	}
	if v, ok := c.Get("fp", decode); !ok || v.(float64) != 1.5 {
		t.Fatalf("Get after duplicate ingest = %v, %v", v, ok)
	}
	// The memory-only layer dedupes too.
	m := NewCache("", "s")
	if err := m.IngestResult("fp", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := m.IngestResult("fp", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.IngestDupes != 1 || s.Stores != 1 {
		t.Fatalf("memory-only dedupe stats = %+v", s)
	}
}

// TestIngestWrongSaltInvisible: an entry ingested under one salt is not
// a result under another (the salt partitions the address space).
func TestIngestWrongSaltInvisible(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCache(dir, "v1")
	if err := c1.IngestResult("fp", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if NewCache(dir, "v2").HasResult("fp") {
		t.Fatal("result visible under a different salt")
	}
}

func TestEncodeResult(t *testing.T) {
	encode, decode := testCodec()
	job := JobFunc{Key: "k", EncodeFn: encode, DecodeFn: decode}
	payload, err := EncodeResult(job, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "2.5" {
		t.Fatalf("payload = %q", payload)
	}
	if _, err := EncodeResult(JobFunc{Key: "k"}, 2.5); err == nil {
		t.Error("job without an encoder accepted")
	}
	bad := JobFunc{Key: "k", EncodeFn: func(any) ([]byte, error) {
		return nil, fmt.Errorf("boom")
	}}
	if _, err := EncodeResult(bad, 2.5); err == nil {
		t.Error("failing encoder not surfaced")
	}
	nonJSON := JobFunc{Key: "k", EncodeFn: func(any) ([]byte, error) {
		return []byte("{truncated"), nil
	}}
	if _, err := EncodeResult(nonJSON, 2.5); err == nil {
		t.Error("non-JSON payload accepted")
	}
}

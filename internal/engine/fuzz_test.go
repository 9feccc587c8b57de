package engine

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// FuzzCacheDiskEntry feeds arbitrary bytes to the cache's disk-entry
// read path as the on-disk entry of one fixed fingerprint: a torn
// write, a stale format, another salt's entry or plain garbage must
// degrade to a counted, self-healing miss, and only a well-formed
// envelope for this fingerprint and salt may ever be served.
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
	f.Fuzz(func(t *testing.T, entry []byte) {
		c := NewCache(t.TempDir(), salt)
		c.Warnf = func(string, ...any) {}
		path := c.path(c.key(fp))
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}

		var env envelope
		wellFormed := json.Unmarshal(entry, &env) == nil &&
			env.Fingerprint == fp && env.Salt == salt
		has := c.HasResult(fp)
		if has != wellFormed {
			t.Fatalf("HasResult = %v for an entry whose envelope match is %v", has, wellFormed)
		}
		want, decErr := decode(env.Payload)
		usable := wellFormed && decErr == nil

		v, hit := c.Get(fp, decode)
		if hit != usable {
			t.Fatalf("Get hit = %v, want %v (HasResult %v, decode error %v)", hit, usable, has, decErr)
		}
		if hit {
			if v != want {
				t.Fatalf("Get = %v, want the decoded payload %v", v, want)
			}
			if s := c.Stats(); s.Corrupt != 0 {
				t.Fatalf("a usable entry counted as corrupt: %+v", s)
			}
			return
		}
		if s := c.Stats(); s.Corrupt != 1 {
			t.Fatalf("Corrupt = %d after an unusable entry, want 1", s.Corrupt)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("unusable entry not removed: stat err %v", err)
		}
		if c.HasResult(fp) {
			t.Fatal("HasResult true after the unusable entry was discarded")
		}

		// The slot heals: a valid ingest reads back, from memory and
		// from disk through a fresh cache.
		if err := c.IngestResult(fp, []byte("2.5")); err != nil {
			t.Fatal(err)
		}
		for _, cache := range []*Cache{c, NewCache(c.dir, salt)} {
			if v, ok := cache.Get(fp, decode); !ok || v != 2.5 {
				t.Fatalf("ingested payload reads back as %v, %v; want 2.5", v, ok)
			}
		}
	})
}

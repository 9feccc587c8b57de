package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// plantRecord appends env, framed as one complete record under fp's
// key, to the segment file name in c's directory, bypassing the write
// path as a damaged or foreign writer would.
func plantRecord(t *testing.T, c *Cache, name, fp string, env []byte) {
	t.Helper()
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(c.dir, name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendRecord(nil, c.key(fp), env)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// corruptEntry plants an unreadable record for fp in c's directory (a
// complete record whose envelope is torn JSON), bypassing the write
// path. Its segment's name sorts before any writer's (those are
// decimal numbers without a leading zero), so a fresh cache meets the
// corrupt record first and must fall through it to a healed one.
func corruptEntry(t *testing.T, c *Cache, fp string) {
	t.Helper()
	plantRecord(t, c, "0-planted"+segSuffix, fp, []byte(`{"fingerprint":"`))
}

// TestCorruptHealConcurrentReaders exercises the self-healing path
// under reader concurrency: many goroutines Get a corrupt record at
// once. Every reader must observe a plain miss (never a wrong value,
// never a panic), the record must be dropped from the index (its bytes
// stay on disk), and a subsequent Put must heal it for all readers and
// for a fresh cache over the same directory. Run under -race this also
// pins the heal path's locking.
func TestCorruptHealConcurrentReaders(t *testing.T) {
	encode, decode := testCodec()
	const fp = "corrupt-concurrent"
	c := NewCache(t.TempDir(), "s")
	c.Warnf = func(string, ...any) {} // expected corruption noise
	corruptEntry(t, c, fp)
	planted := readDirFiles(t, c.dir)

	const readers = 16
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, ok := c.Get(fp, decode); ok {
				t.Errorf("Get on a corrupt entry returned %v", v)
			}
		}()
	}
	wg.Wait()

	if got := c.Stats().Corrupt; got < 1 {
		t.Fatalf("Corrupt = %d, want >= 1 discard", got)
	}
	c.mu.Lock()
	left := len(c.index[c.key(fp)])
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("corrupt record not dropped from the index: %d left", left)
	}
	if after := readDirFiles(t, c.dir); !reflect.DeepEqual(after, planted) {
		t.Fatal("a reader rewrote or deleted the corrupt record's segment")
	}

	// Heal: a recompute's Put appends a good record; every reader (and a
	// fresh cache over the same dir) now sees the healed value.
	c.Put(fp, 9.75, encode)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, ok := c.Get(fp, decode); !ok || v.(float64) != 9.75 {
				t.Errorf("healed Get = %v, %v", v, ok)
			}
		}()
	}
	wg.Wait()
	fresh := NewCache(c.dir, "s")
	fresh.Warnf = func(string, ...any) {}
	if v, ok := fresh.Get(fp, decode); !ok || v.(float64) != 9.75 {
		t.Fatalf("healed entry not durable: %v, %v", v, ok)
	}
}

// TestCorruptHealRaceWithRewrite interleaves the heal (discard +
// recompute-Put) with concurrent readers of the same key: readers must
// only ever observe a miss or the healed value, and the healed record
// must be durable — a fresh cache over the directory reads it back
// after every round. Each round uses a new fingerprint, so the memory
// layers and the index never mask the disk path.
func TestCorruptHealRaceWithRewrite(t *testing.T) {
	encode, decode := testCodec()
	c := NewCache(t.TempDir(), "s")
	c.Warnf = func(string, ...any) {}

	for round := 0; round < 20; round++ {
		fp := fmt.Sprintf("heal-rewrite-race-%d", round)
		corruptEntry(t, c, fp)

		var wg sync.WaitGroup
		// One goroutine plays the recomputing worker: it reads (triggering
		// the discard) then rewrites, exactly as the engine does on a
		// corrupt-entry miss.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := c.Get(fp, decode); !ok {
				c.Put(fp, 1.5, encode)
			}
		}()
		// The rest are concurrent readers racing the heal.
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, ok := c.Get(fp, decode); ok && v.(float64) != 1.5 {
					t.Errorf("reader observed a wrong value %v during heal", v)
				}
			}()
		}
		wg.Wait()

		// After the dust settles the entry is healed and readable, in
		// this cache and through a fresh one.
		if v, ok := c.Get(fp, decode); !ok || v.(float64) != 1.5 {
			t.Fatalf("round %d: post-heal Get = %v, %v", round, v, ok)
		}
		fresh := NewCache(c.dir, "s")
		fresh.Warnf = func(string, ...any) {}
		if v, ok := fresh.Get(fp, decode); !ok || v.(float64) != 1.5 {
			t.Fatalf("round %d: healed entry not durable: fresh Get = %v, %v", round, v, ok)
		}
	}
}

package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock drives a Budget deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBudget(rate float64, burst, inFlight int) (*Budget, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBudget(rate, burst, inFlight)
	if b != nil {
		b.now = clk.now
		b.last = clk.t
	}
	return b, clk
}

func TestBudgetNilAdmitsNothing(t *testing.T) {
	var b *Budget
	if b.TryAcquire() {
		t.Fatal("nil budget admitted a job")
	}
	b.Release() // must not panic
	if s := b.Stats(); s != (BudgetStats{}) {
		t.Fatalf("nil budget stats = %+v", s)
	}
	// Only a positive finite rate builds a gate: a NaN rate leaves NaN
	// tokens, which never compare below one, and an infinite rate
	// refills the bucket at every acquire, so either admits every job.
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if NewBudget(rate, 5, 0) != nil {
			t.Fatalf("NewBudget(%v) should be the nil admit-nothing budget", rate)
		}
	}
}

func TestBudgetTokenBucket(t *testing.T) {
	b, clk := testBudget(2, 3, 0) // 2 tokens/s, burst 3
	// The bucket starts full: exactly burst admissions back to back.
	for i := 0; i < 3; i++ {
		if !b.TryAcquire() {
			t.Fatalf("acquire %d denied with a full bucket", i)
		}
		b.Release()
	}
	if b.TryAcquire() {
		t.Fatal("acquire succeeded on an empty bucket")
	}
	// Half a second refills one token at 2/s.
	clk.advance(500 * time.Millisecond)
	if !b.TryAcquire() {
		t.Fatal("refill after 500ms at 2 jobs/s denied")
	}
	b.Release()
	if b.TryAcquire() {
		t.Fatal("second acquire after a one-token refill succeeded")
	}
	// A long idle period caps at burst, not elapsed*rate.
	clk.advance(time.Hour)
	admitted := 0
	for b.TryAcquire() {
		b.Release()
		admitted++
	}
	if admitted != 3 {
		t.Fatalf("after a long idle: %d admissions, want the burst cap 3", admitted)
	}
	s := b.Stats()
	if s.Admitted != 7 || s.Denied != 3 {
		t.Fatalf("stats %+v, want 7 admitted / 3 denied", s)
	}
}

func TestBudgetMaxInFlight(t *testing.T) {
	b, _ := testBudget(1000, 10, 2)
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("first two acquires denied")
	}
	if b.TryAcquire() {
		t.Fatal("third concurrent acquire exceeded maxInFlight=2")
	}
	b.Release()
	if !b.TryAcquire() {
		t.Fatal("acquire denied after a Release freed a slot")
	}
	if got := b.Stats().InFlight; got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
}

func TestBudgetBurstDefaults(t *testing.T) {
	if b := NewBudget(2.5, 0, 0); b.burst != 3 {
		t.Fatalf("burst default for rate 2.5 = %g, want ceil = 3", b.burst)
	}
	if b := NewBudget(0.25, 0, 0); b.burst != 1 {
		t.Fatalf("burst default for rate 0.25 = %g, want min 1", b.burst)
	}
	if b := NewBudget(4, 9, 0); b.burst != 9 {
		t.Fatalf("explicit burst = %g, want 9", b.burst)
	}
}

// budgetJob is a counting cacheable job for write-through tests.
func budgetJob(fp string, runs *atomic.Int64) Job {
	return JobFunc{
		JobName: fp,
		Key:     fp,
		Fn: func(ctx context.Context) (any, error) {
			runs.Add(1)
			return fp + "-value", nil
		},
	}
}

// TestCacheOnlyWriteThrough is the admission-control acceptance test:
// a CacheOnly engine with a Budget fills misses up to the budget and
// degrades to Missing beyond it; without a Budget nothing executes.
func TestCacheOnlyWriteThrough(t *testing.T) {
	cache := NewCache("", "test-salt")
	var runs atomic.Int64
	b, _ := testBudget(1, 2, 0) // burst 2, no refill during the test
	eng := New(Config{Workers: 1, Cache: cache, CacheOnly: true, Budget: b})

	jobs := []Job{budgetJob("a", &runs), budgetJob("b", &runs), budgetJob("c", &runs)}
	results, err := eng.Run(context.Background(), jobs)
	var missing *MissingError
	if !asMissing(err, &missing) {
		t.Fatalf("Run error = %v, want a *MissingError for the over-budget job", err)
	}
	if len(missing.Jobs) != 1 || missing.Jobs[0].Name != "c" {
		t.Fatalf("missing jobs = %+v, want exactly the over-budget job c", missing.Jobs)
	}
	if runs.Load() != 2 {
		t.Fatalf("%d jobs executed, want the 2 the budget admitted", runs.Load())
	}
	if results[0].Value != "a-value" || results[1].Value != "b-value" {
		t.Fatalf("admitted results = %+v", results[:2])
	}
	if !results[2].Missing {
		t.Fatalf("over-budget result = %+v, want Missing", results[2])
	}
	if s := b.Stats(); s.Admitted != 2 || s.Denied != 1 || s.InFlight != 0 {
		t.Fatalf("budget stats %+v, want 2 admitted, 1 denied, 0 in flight", s)
	}
	// The same budgeted engine answers the filled rows from the cache
	// and admits nothing for them.
	again, err := eng.Run(context.Background(), jobs[:2])
	if err != nil {
		t.Fatalf("budgeted re-run over the filled rows: %v", err)
	}
	if !again[0].FromCache || !again[1].FromCache {
		t.Fatalf("filled rows not served from cache: %+v", again)
	}
	if s := b.Stats(); s.Admitted != 2 || s.Denied != 1 {
		t.Fatalf("re-run moved the budget: %+v", s)
	}
	// The filled rows are published: a strict engine over the same
	// cache now answers them without computing.
	strict := New(Config{Workers: 1, Cache: cache, CacheOnly: true})
	res2, err := strict.Run(context.Background(), jobs[:2])
	if err != nil {
		t.Fatalf("strict re-run over the filled cache: %v", err)
	}
	if !res2[0].FromCache || !res2[1].FromCache {
		t.Fatalf("filled rows not served from cache: %+v", res2)
	}
	if runs.Load() != 2 {
		t.Fatalf("strict engine executed jobs: %d runs", runs.Load())
	}
}

// TestCacheOnlyWithoutBudgetUnchanged pins the strict contract byte for
// byte: no Budget, no execution, every miss Missing.
func TestCacheOnlyWithoutBudgetUnchanged(t *testing.T) {
	var runs atomic.Int64
	eng := New(Config{Workers: 2, Cache: NewCache("", "test-salt"), CacheOnly: true})
	jobs := []Job{budgetJob("a", &runs), budgetJob("b", &runs)}
	results, err := eng.Run(context.Background(), jobs)
	var missing *MissingError
	if !asMissing(err, &missing) || len(missing.Jobs) != 2 {
		t.Fatalf("err = %v, want MissingError with both jobs", err)
	}
	if runs.Load() != 0 {
		t.Fatalf("strict CacheOnly executed %d jobs", runs.Load())
	}
	for _, r := range results {
		if !r.Missing {
			t.Fatalf("result %+v, want Missing", r)
		}
	}
}

func asMissing(err error, target **MissingError) bool {
	return errors.As(err, target)
}

func TestBudgetStatsString(t *testing.T) {
	b, _ := testBudget(5, 10, 3)
	b.TryAcquire()
	got := b.Stats().String()
	want := "budget: 5 jobs/s (burst 10, max in-flight 3): 1 admitted, 0 denied, 1 in flight"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

package engine

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Budget is the compute-admission gate behind write-through serving: a
// token bucket over jobs/sec combined with a max-in-flight bound. A
// CacheOnly engine carrying a Budget may fill a cache miss by actually
// executing the job — but only while the bucket holds a token and the
// in-flight bound has room; once the budget is exhausted the engine
// degrades to the strict behaviour (the miss comes back Missing and the
// serving layer answers 503 with the unpublished jobs). The nil *Budget
// admits nothing, so "no budget configured" is exactly the historical
// never-recompute contract.
//
// Budget is safe for concurrent use. Time is read through an injectable
// clock so the refill schedule is testable; the engine package is on the
// determinism allowlist for wall-clock reads (admission timing cannot
// change result bytes — results stay content-addressed).
type Budget struct {
	mu       sync.Mutex
	rate     float64 // tokens refilled per second
	burst    float64 // bucket capacity
	tokens   float64
	last     time.Time
	maxInFly int // 0 = unbounded
	inFlight int
	now      func() time.Time

	admitted int64
	denied   int64
}

// NewBudget builds an admission budget refilling `rate` tokens/sec with
// the given burst capacity and in-flight bound. The bucket starts full,
// so a fresh server can fill up to `burst` rows immediately. A burst
// < 1 defaults to ceil(rate) (at least 1); maxInFlight <= 0 means
// unbounded. A rate that is not a positive finite number (zero,
// negative, NaN, ±Inf) returns nil — the budget that admits nothing.
func NewBudget(rate float64, burst, maxInFlight int) *Budget {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return nil
	}
	b := float64(burst)
	if burst < 1 {
		b = max(1, math.Ceil(rate))
	}
	if maxInFlight < 0 {
		maxInFlight = 0
	}
	return &Budget{rate: rate, burst: b, tokens: b, maxInFly: maxInFlight,
		now: time.Now}
}

// TryAcquire consumes one token and one in-flight slot, reporting
// whether the job was admitted. Never blocks. Every successful acquire
// must be paired with a Release once the job finishes.
func (b *Budget) TryAcquire() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 || (b.maxInFly > 0 && b.inFlight >= b.maxInFly) {
		b.denied++
		return false
	}
	b.tokens--
	b.inFlight++
	b.admitted++
	return true
}

// Release returns the in-flight slot taken by a successful TryAcquire.
// Tokens are deliberately not refunded: the job ran, the work is spent.
func (b *Budget) Release() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.inFlight > 0 {
		b.inFlight--
	}
	b.mu.Unlock()
}

// BudgetStats snapshots the gate's configuration and counters.
type BudgetStats struct {
	Rate        float64 `json:"rate"`
	Burst       float64 `json:"burst"`
	MaxInFlight int     `json:"maxInFlight"`
	InFlight    int     `json:"inFlight"`
	Admitted    int64   `json:"admitted"`
	Denied      int64   `json:"denied"`
}

// Stats returns the budget's counters (zero value for a nil budget).
func (b *Budget) Stats() BudgetStats {
	if b == nil {
		return BudgetStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BudgetStats{Rate: b.rate, Burst: b.burst, MaxInFlight: b.maxInFly,
		InFlight: b.inFlight, Admitted: b.admitted, Denied: b.denied}
}

// String renders the stats one-line for logs and /healthz text.
func (s BudgetStats) String() string {
	return fmt.Sprintf("budget: %.3g jobs/s (burst %.0f, max in-flight %d): %d admitted, %d denied, %d in flight",
		s.Rate, s.Burst, s.MaxInFlight, s.Admitted, s.Denied, s.InFlight)
}

package engine

import "time"

// BackoffPolicy is the retry-wait discipline of the dist worker's HTTP
// post loop (the engine itself runs each job once): exponential
// doubling from Base, capped at Max, then deterministically jittered
// into [d/2, d) by a DeriveSeed stream keyed on a caller-chosen label
// and the attempt number, so simultaneous failures across a fleet
// never retry in lockstep yet every schedule is reproducible without a
// shared RNG.
type BackoffPolicy struct {
	// Base is the pre-jitter delay before the first retry; <= 0 means
	// 50ms.
	Base time.Duration
	// Max caps the doubled delay (before jitter); <= 0 means 5s.
	Max time.Duration
}

// Delay returns the wait before the retry that follows failed attempt
// `attempt` (1-based): doubling capped at Max, jittered into [d/2, d).
// The jitter is a pure function of (label, attempt), so equal inputs
// always sleep equally long.
func (p BackoffPolicy) Delay(label string, attempt int) time.Duration {
	base, max := p.Base, p.Max
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	frac := float64(DeriveSeed(int64(attempt), "retry-backoff", label)) / float64(uint64(1)<<63)
	return d/2 + time.Duration(frac*float64(d/2))
}

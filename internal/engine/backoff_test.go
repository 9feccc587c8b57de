package engine

import (
	"testing"
	"time"
)

// TestBackoffPolicyShape pins the post-retry wait discipline: capped
// doubling with deterministic jitter in [d/2, d).
func TestBackoffPolicyShape(t *testing.T) {
	p := BackoffPolicy{Base: 100 * time.Millisecond, Max: 800 * time.Millisecond}
	caps := []time.Duration{
		100 * time.Millisecond, // attempt 1
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		800 * time.Millisecond, // capped
		800 * time.Millisecond,
	}
	for i, want := range caps {
		a := i + 1
		d := p.Delay("job-x", a)
		if d < want/2 || d >= want {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", a, d, want/2, want)
		}
	}
}

// TestBackoffPolicyDeterministic: equal (label, attempt) always sleeps
// equally long; distinct labels de-synchronise.
func TestBackoffPolicyDeterministic(t *testing.T) {
	p := BackoffPolicy{Base: time.Second, Max: time.Minute}
	if p.Delay("a", 3) != p.Delay("a", 3) {
		t.Fatal("same inputs, different delays")
	}
	// Jitter spreads across labels: with 16 labels the odds of all
	// collapsing onto one value are nil for a working hash.
	seen := map[time.Duration]bool{}
	for _, l := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		seen[p.Delay(l, 3)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitter did not spread: %v", seen)
	}
}

// TestBackoffPolicyDefaults: the zero policy is usable (50ms base, 5s
// cap).
func TestBackoffPolicyDefaults(t *testing.T) {
	var p BackoffPolicy
	d1 := p.Delay("x", 1)
	if d1 < 25*time.Millisecond || d1 >= 50*time.Millisecond {
		t.Errorf("zero-policy attempt 1 delay = %v", d1)
	}
	d20 := p.Delay("x", 20)
	if d20 < 2500*time.Millisecond || d20 >= 5*time.Second {
		t.Errorf("zero-policy deep-attempt delay = %v, want capped near 5s", d20)
	}
}

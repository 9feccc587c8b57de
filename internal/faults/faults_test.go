package faults

import (
	"math"
	"testing"
)

func mustNew(t *testing.T, cfg Config, n, horizon int, seed int64) *Plan {
	t.Helper()
	p, err := New(cfg, n, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{CrashRate: -0.1},
		{CrashRate: 1.1},
		{LossRate: -0.1},
		{LossRate: 2},
		{DutyOn: -1},
		{DutyOff: -1},
		{DutyOff: 3}, // DutyOff > 0 needs DutyOn >= 1
		{EnergyCap: -1},
		{CrashRate: math.NaN()},
		{CrashRate: math.Inf(1)},
		{LossRate: math.NaN()},
		{LossRate: math.Inf(-1)},
		{EnergyCap: math.NaN()},
		{EnergyCap: math.Inf(1)},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", cfg)
		}
	}
	good := Config{CrashRate: 0.5, LossRate: 0.1, DutyOn: 2, DutyOff: 1, EnergyCap: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v): %v", good, err)
	}
	if (Config{}).Enabled() {
		t.Error("zero Config must be disabled")
	}
	if !good.Enabled() {
		t.Error("non-zero Config must be enabled")
	}
}

func TestNewArgumentChecks(t *testing.T) {
	if _, err := New(Config{}, 0, 10, 1); err == nil {
		t.Error("n = 0 should fail")
	}
	if _, err := New(Config{}, 5, 0, 1); err == nil {
		t.Error("horizon = 0 should fail")
	}
	if _, err := New(Config{CrashRate: 2}, 5, 10, 1); err == nil {
		t.Error("invalid config should fail")
	}
}

// TestDeterminism: identical (cfg, n, horizon, seed) yields identical
// crash schedules, duty schedules, and loss-draw sequences.
func TestDeterminism(t *testing.T) {
	cfg := Config{CrashRate: 0.4, LossRate: 0.3, DutyOn: 2, DutyOff: 2, EnergyCap: 5}
	const n, horizon, seed = 60, 40, 1234
	a := mustNew(t, cfg, n, horizon, seed)
	b := mustNew(t, cfg, n, horizon, seed)
	for u := int32(0); u < n; u++ {
		if a.CrashPhase(u) != b.CrashPhase(u) {
			t.Fatalf("node %d: crash phase %d vs %d", u, a.CrashPhase(u), b.CrashPhase(u))
		}
		for ph := int32(1); ph <= horizon; ph++ {
			if a.Up(u, ph) != b.Up(u, ph) {
				t.Fatalf("node %d phase %d: Up diverges", u, ph)
			}
		}
	}
	for i := 0; i < 500; i++ {
		if a.Drop() != b.Drop() {
			t.Fatalf("loss draw %d diverges", i)
		}
	}
	// A different seed must yield a different crash schedule.
	c := mustNew(t, cfg, n, horizon, seed+1)
	same := true
	for u := int32(0); u < n; u++ {
		if a.CrashPhase(u) != c.CrashPhase(u) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical crash schedules")
	}
}

// TestCrashCoupling: at a fixed seed the crashed set at a low rate is
// a subset of the crashed set at any higher rate, with identical crash
// phases for the shared nodes — the property that makes degradation
// sweeps monotone by construction.
func TestCrashCoupling(t *testing.T) {
	const n, horizon, seed = 200, 50, 99
	rates := []float64{0.1, 0.3, 0.5, 0.9}
	plans := make([]*Plan, len(rates))
	for i, r := range rates {
		plans[i] = mustNew(t, Config{CrashRate: r}, n, horizon, seed)
	}
	for i := 1; i < len(plans); i++ {
		lo, hi := plans[i-1], plans[i]
		if lo.Stats().Crashed > hi.Stats().Crashed {
			t.Errorf("rate %g crashed %d > rate %g crashed %d",
				rates[i-1], lo.Stats().Crashed, rates[i], hi.Stats().Crashed)
		}
		for u := int32(0); u < n; u++ {
			if lo.CrashPhase(u) < 0 {
				continue // not crashed at the lower rate
			}
			if hi.CrashPhase(u) != lo.CrashPhase(u) {
				t.Fatalf("node %d: crash at rate %g (phase %d) not preserved at rate %g (phase %d)",
					u, rates[i-1], lo.CrashPhase(u), rates[i], hi.CrashPhase(u))
			}
		}
	}
	// Sanity: the extreme rates realise different crash counts.
	if plans[0].Stats().Crashed >= plans[len(plans)-1].Stats().Crashed {
		t.Errorf("crash counts should grow with the rate: %d vs %d",
			plans[0].Stats().Crashed, plans[len(plans)-1].Stats().Crashed)
	}
}

// TestSourceExemption: node 0 never crashes, sleeps, or depletes, even
// at the extreme rates, so every run has a broadcast to measure.
func TestSourceExemption(t *testing.T) {
	p := mustNew(t, Config{CrashRate: 1, DutyOn: 1, DutyOff: 10, EnergyCap: 0.1}, 30, 20, 7)
	if got := p.CrashPhase(0); got != -1 {
		t.Errorf("source crash phase = %d, want -1", got)
	}
	for ph := int32(1); ph <= 20; ph++ {
		if !p.Up(0, ph) {
			t.Fatalf("source down at phase %d", ph)
		}
	}
	for i := 0; i < 10; i++ {
		if !p.Spend(0, 100) {
			t.Fatal("source energy budget must be unlimited")
		}
	}
	if p.Stats().Depleted != 0 {
		t.Errorf("source spends must not deplete: %+v", p.Stats())
	}
	// Every other node crashed at rate 1.
	if got := p.Stats().Crashed; got != 29 {
		t.Errorf("Crashed = %d, want 29", got)
	}
}

func TestCrashStopsParticipation(t *testing.T) {
	p := mustNew(t, Config{CrashRate: 1}, 10, 30, 3)
	for u := int32(1); u < 10; u++ {
		at := p.CrashPhase(u)
		if at < 1 || at > 30 {
			t.Fatalf("node %d crash phase %d outside horizon", u, at)
		}
		if at > 1 && !p.Up(u, at-1) {
			t.Errorf("node %d down before its crash phase", u)
		}
		if p.Up(u, at) || p.Up(u, at+5) {
			t.Errorf("node %d up at or after its crash phase", u)
		}
		if _, ok := p.NextUp(u, at); ok {
			t.Errorf("NextUp must fail from node %d's crash phase on", u)
		}
	}
}

func TestDutyCycle(t *testing.T) {
	p := mustNew(t, Config{DutyOn: 2, DutyOff: 3}, 20, 100, 11)
	for u := int32(1); u < 20; u++ {
		awake := 0
		for ph := int32(1); ph <= 100; ph++ {
			if p.Awake(u, ph) {
				awake++
			}
			// The schedule is periodic with period 5.
			if p.Awake(u, ph) != p.Awake(u, ph+5) {
				t.Fatalf("node %d: schedule not periodic at phase %d", u, ph)
			}
		}
		if awake != 40 {
			t.Errorf("node %d awake %d/100 phases, want 40 (2 of every 5)", u, awake)
		}
		// NextUp lands on an awake phase within one period.
		for ph := int32(1); ph <= 20; ph++ {
			up, ok := p.NextUp(u, ph)
			if !ok {
				t.Fatalf("node %d: NextUp(%d) failed inside the horizon", u, ph)
			}
			if up < ph || up >= ph+5 || !p.Awake(u, up) {
				t.Fatalf("node %d: NextUp(%d) = %d is not the next awake phase", u, ph, up)
			}
		}
	}
	// Offsets desynchronise the fleet: not every node shares node 1's
	// schedule.
	diverse := false
	for u := int32(2); u < 20; u++ {
		if p.Awake(u, 1) != p.Awake(1, 1) || p.Awake(u, 3) != p.Awake(1, 3) {
			diverse = true
			break
		}
	}
	if !diverse {
		t.Error("duty offsets left every node on the same schedule")
	}
}

func TestEnergyDepletion(t *testing.T) {
	p := mustNew(t, Config{EnergyCap: 2}, 5, 10, 1)
	// Two unit spends reach the cap without exceeding it.
	if !p.Spend(1, 1) || !p.Spend(1, 1) {
		t.Fatal("spends within the cap must not deplete")
	}
	if !p.Up(1, 5) {
		t.Fatal("node at exactly the cap is still up")
	}
	// The crossing spend depletes: the transmission completes but the
	// node is down afterwards.
	if p.Spend(1, 1) {
		t.Fatal("crossing spend must report depletion")
	}
	if p.Up(1, 5) || p.Alive(1, 5) {
		t.Fatal("depleted node must be down")
	}
	if got := p.Stats().Depleted; got != 1 {
		t.Fatalf("Depleted = %d, want 1", got)
	}
	// Depletion is idempotent.
	p.Spend(1, 1)
	if got := p.Stats().Depleted; got != 1 {
		t.Fatalf("Depleted double-counted: %d", got)
	}
}

// TestNilPlan: a nil *Plan is valid and fault-free everywhere, so
// callers can thread one unconditionally.
func TestNilPlan(t *testing.T) {
	var p *Plan
	if p.Horizon() != 0 {
		t.Error("nil Horizon")
	}
	if p.CrashPhase(3) != -1 {
		t.Error("nil CrashPhase")
	}
	if !p.Alive(3, 100) || !p.Awake(3, 100) || !p.Up(3, 100) {
		t.Error("nil plan must report every node up")
	}
	if up, ok := p.NextUp(3, 7); !ok || up != 7 {
		t.Errorf("nil NextUp = (%d, %v), want (7, true)", up, ok)
	}
	if !p.Spend(3, 1e9) {
		t.Error("nil Spend must never deplete")
	}
	if p.Drop() {
		t.Error("nil Drop must never lose packets")
	}
	if p.Stats() != (Stats{}) {
		t.Error("nil Stats must be zero")
	}
}

func TestLossRateExtremes(t *testing.T) {
	never := mustNew(t, Config{LossRate: 0, CrashRate: 0.1}, 5, 10, 1)
	always := mustNew(t, Config{LossRate: 1}, 5, 10, 1)
	for i := 0; i < 100; i++ {
		if never.Drop() {
			t.Fatal("LossRate 0 must never drop")
		}
		if !always.Drop() {
			t.Fatal("LossRate 1 must always drop")
		}
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sensornet/internal/channel"
	"sensornet/internal/deploy"
	"sensornet/internal/faults"
	"sensornet/internal/protocol"
)

// poolCases crosses every channel model with sync/async and with and
// without a fault plan, at the shootout's field size and densities,
// over seeds.
func poolCases(rhos []float64, seeds []int64) []Config {
	var out []Config
	for _, rho := range rhos {
		for _, seed := range seeds {
			for _, model := range []channel.Model{channel.CFM, channel.CAM,
				channel.CAMCarrierSense, channel.ModelSINR} {
				for _, async := range []bool{false, true} {
					for _, fc := range []*faults.Config{nil, {CrashRate: 0.2, LossRate: 0.1}} {
						out = append(out, Config{P: 5, Rho: rho, S: 3, Model: model,
							Protocol: protocol.Probability{P: 0.4}, Seed: seed,
							Async: async, MaxPhases: 10, Faults: fc})
					}
				}
			}
		}
	}
	return out
}

func resultString(t *testing.T, r *Result, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%#v", *r)
}

// TestPoolRunMatchesRun checks that a pooled run is Run, bit for bit,
// and that the pool builds each distinct deployment once — plain lists,
// sensing lists, and sensing lists with gains per (density, seed) —
// then releases every build after its last registered run.
func TestPoolRunMatchesRun(t *testing.T) {
	rhos, seeds := []float64{40, 100}, []int64{1, 2, 3}
	cases := poolCases(rhos, seeds)
	pool := NewPool(1 << 30)
	for _, cfg := range cases {
		pool.Register(cfg)
	}
	for _, cfg := range cases {
		got, err := pool.Run(cfg)
		g := resultString(t, got, err)
		want, err := Run(cfg)
		if w := resultString(t, want, err); g != w {
			t.Fatalf("%v async=%v faults=%v seed %d rho %g: pooled run differs from Run",
				cfg.Model, cfg.Async, cfg.Faults != nil, cfg.Seed, cfg.Rho)
		}
	}
	st := pool.Stats()
	if want := len(rhos) * len(seeds) * 3; st.Builds != want {
		t.Errorf("pool built %d deployments, want %d", st.Builds, want)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("pool still holds %d entries (%d bytes) after the last run", st.Entries, st.Bytes)
	}
}

// TestPoolConcurrentRuns runs registered configurations from several
// goroutines at once: every run still equals Run, and runs arriving
// while a build is in flight wait for it instead of building again.
func TestPoolConcurrentRuns(t *testing.T) {
	cases := poolCases([]float64{40}, []int64{4})
	want := make([]string, len(cases))
	for i, cfg := range cases {
		r, err := Run(cfg)
		want[i] = resultString(t, r, err)
	}
	pool := NewPool(1 << 30)
	for _, cfg := range cases {
		pool.Register(cfg)
	}
	got := make([]string, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, cfg := range cases {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			r, err := pool.Run(cfg)
			if errs[i] = err; err == nil {
				got[i] = fmt.Sprintf("%#v", *r)
			}
		}(i, cfg)
	}
	wg.Wait()
	for i := range cases {
		if errs[i] != nil {
			t.Fatalf("case %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("case %d: concurrent pooled run differs from Run", i)
		}
	}
	if st := pool.Stats(); st.Builds != 3 || st.Entries != 0 {
		t.Errorf("stats %+v, want 3 builds and no entries left", st)
	}
}

// TestPoolRejectsMismatchedPositions plants a build whose positions are
// not the replayed ones: the run must fail rather than simulate on it.
func TestPoolRejectsMismatchedPositions(t *testing.T) {
	cfg := Config{P: 3, Rho: 20, S: 3, Seed: 5}
	pool := NewPool(1 << 30)
	pool.Register(cfg)
	pool.Register(cfg)
	defaulted := cfg
	defaulted.applyDefaults()
	key, ok := keyOf(&defaulted)
	if !ok {
		t.Fatal("plain config has no pool key")
	}
	other, err := deploy.Generate(deployConfig(&defaulted), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan struct{})
	close(ready)
	pool.entries[key] = &poolEntry{ready: ready, dep: other}
	if _, err := pool.Run(cfg); err == nil || !strings.Contains(err.Error(), "differs from the replayed placement") {
		t.Fatalf("run on a mismatched pooled deployment: err = %v", err)
	}
}

// TestPoolZeroLimitBuildsPerRun: a pool that may keep nothing builds
// once per run, exactly as unpooled runs do, with the same results.
func TestPoolZeroLimitBuildsPerRun(t *testing.T) {
	cfg := Config{P: 3, Rho: 20, S: 3, Model: channel.ModelSINR, Seed: 8}
	pool := NewPool(0)
	const runs = 3
	for i := 0; i < runs; i++ {
		pool.Register(cfg)
	}
	want, err := Run(cfg)
	w := resultString(t, want, err)
	for i := 0; i < runs; i++ {
		got, err := pool.Run(cfg)
		if resultString(t, got, err) != w {
			t.Fatalf("run %d differs from Run", i)
		}
	}
	if st := pool.Stats(); st.Builds != runs || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats %+v, want %d builds and nothing kept", st, runs)
	}
}

// TestPoolBypassesOwnDeployment: a run that brings its deployment
// neither registers nor builds.
func TestPoolBypassesOwnDeployment(t *testing.T) {
	dep, err := deploy.Generate(deploy.Config{P: 3, Rho: 20}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{P: 3, Rho: 20, S: 3, Seed: 2, Deployment: dep}
	pool := NewPool(1 << 30)
	pool.Register(cfg)
	got, err := pool.Run(cfg)
	g := resultString(t, got, err)
	want, err := Run(cfg)
	if resultString(t, want, err) != g {
		t.Fatal("pooled run on a supplied deployment differs from Run")
	}
	if st := pool.Stats(); st.Builds != 0 || len(pool.pending) != 0 {
		t.Errorf("stats %+v, %d pending keys: a supplied deployment must bypass the pool", st, len(pool.pending))
	}
}

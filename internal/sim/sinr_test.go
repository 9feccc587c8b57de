package sim

import (
	"math/rand"
	"strings"
	"testing"

	"sensornet/internal/channel"
	"sensornet/internal/deploy"
)

func TestSINRRunSyncSpreads(t *testing.T) {
	res, err := Run(Config{P: 3, Rho: 20, S: 3, Model: channel.ModelSINR, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached <= 1 || res.Broadcasts == 0 || res.Delivered == 0 {
		t.Fatalf("SINR flooding did not spread: reached=%d broadcasts=%d delivered=%d",
			res.Reached, res.Broadcasts, res.Delivered)
	}
	if res.Reached > res.Connected {
		t.Fatalf("reached %d exceeds connected component %d", res.Reached, res.Connected)
	}
}

func TestSINRRunAsyncSpreads(t *testing.T) {
	res, err := Run(Config{P: 3, Rho: 20, S: 3, Model: channel.ModelSINR, Seed: 5, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached <= 1 || res.Broadcasts == 0 || res.Delivered == 0 {
		t.Fatalf("async SINR flooding did not spread: reached=%d broadcasts=%d delivered=%d",
			res.Reached, res.Broadcasts, res.Delivered)
	}
}

func TestSINRRunDeterministic(t *testing.T) {
	for _, async := range []bool{false, true} {
		cfg := Config{P: 3, Rho: 20, S: 3, Model: channel.ModelSINR, Seed: 11, Async: async}
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Reached != b.Reached || a.Broadcasts != b.Broadcasts ||
			a.Delivered != b.Delivered || a.LostToCollision != b.LostToCollision {
			t.Fatalf("async=%v: same seed diverged: %+v vs %+v", async, a, b)
		}
	}
}

// TestSINRRunRequiresGainTables pins both engines' guard against a
// caller-supplied deployment built without the precomputed gains.
func TestSINRRunRequiresGainTables(t *testing.T) {
	dep, err := deploy.Generate(deploy.Config{P: 3, Rho: 15, WithSensing: true},
		rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, async := range []bool{false, true} {
		_, err := Run(Config{S: 3, Model: channel.ModelSINR, Seed: 1, Async: async, Deployment: dep})
		if err == nil {
			t.Fatalf("async=%v: deployment without gain tables should error", async)
		}
		if !strings.Contains(err.Error(), "gain") {
			t.Fatalf("async=%v: unhelpful error %q", async, err)
		}
	}
}

// TestSINRMatchesCAMForLoneTransmitters pins the parameter-defaults
// contract: with β·N₀ < 1 a lone transmitter decodes at every in-range
// receiver, so on a deployment sparse enough that transmissions never
// overlap, SINR and CAM runs are observationally identical.
func TestSINRMatchesCAMForLoneTransmitters(t *testing.T) {
	p := channel.DefaultSINRParams()
	if p.Beta*p.N0 >= 1 {
		t.Fatalf("default β·N₀ = %v must stay < 1 so lone transmitters decode at range edge", p.Beta*p.N0)
	}
	// Two nodes: the source and one neighbour. One transmission, no
	// interference — both models must deliver exactly once.
	mk := func(alpha float64) *deploy.Deployment {
		d, err := deploy.Generate(deploy.Config{N: 2, P: 1, Rho: 2, WithSensing: true, GainAlpha: alpha},
			rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cam, err := Run(Config{S: 3, Model: channel.CAMCarrierSense, Seed: 2, Deployment: mk(0)})
	if err != nil {
		t.Fatal(err)
	}
	sinr, err := Run(Config{S: 3, Model: channel.ModelSINR, Seed: 2, Deployment: mk(p.Alpha)})
	if err != nil {
		t.Fatal(err)
	}
	if cam.Reached != sinr.Reached || cam.Delivered != sinr.Delivered {
		t.Fatalf("lone-transmitter runs diverged: CAM %+v, SINR %+v", cam, sinr)
	}
}

// TestSINRAsyncLoneTransmittersMatchCAM is the async counterpart of the
// lone-transmitter equivalence: on a two-node field transmissions never
// overlap, so the continuous-time SINR engine must hand over the packet
// exactly like the CAM engine does.
func TestSINRAsyncLoneTransmittersMatchCAM(t *testing.T) {
	mk := func(alpha float64) *deploy.Deployment {
		d, err := deploy.Generate(deploy.Config{N: 2, P: 1, Rho: 2, WithSensing: true, GainAlpha: alpha},
			rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cam, err := Run(Config{S: 3, Model: channel.CAMCarrierSense, Seed: 2, Async: true, Deployment: mk(0)})
	if err != nil {
		t.Fatal(err)
	}
	sinr, err := Run(Config{S: 3, Model: channel.ModelSINR, Seed: 2, Async: true,
		Deployment: mk(channel.DefaultSINRParams().Alpha)})
	if err != nil {
		t.Fatal(err)
	}
	if cam.Reached != sinr.Reached || cam.Delivered != sinr.Delivered ||
		cam.Broadcasts != sinr.Broadcasts {
		t.Fatalf("async lone-transmitter runs diverged: CAM %+v, SINR %+v", cam, sinr)
	}
}

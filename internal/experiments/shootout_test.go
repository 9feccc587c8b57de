package experiments

import (
	"context"
	"strings"
	"testing"

	"sensornet/internal/channel"
	"sensornet/internal/engine"
)

func shootTestPreset() Preset {
	p := QuickSim()
	p.Rhos = nil // the shootout sweeps its own densities
	p.Runs = 2
	return p
}

func TestShootoutJobsShape(t *testing.T) {
	pre := shootTestPreset()
	jobs, err := ShootoutJobs(pre, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := len(ShootoutModels()) * len(DefaultShootoutRhos()) * 4
	if len(jobs) != want {
		t.Fatalf("ShootoutJobs: %d jobs, want %d (models x rhos x schemes)", len(jobs), want)
	}
	// Fingerprints are the distributed protocol's only job identity:
	// they must be unique and stable across builder calls.
	seen := make(map[string]bool)
	for _, j := range jobs {
		if seen[j.Fingerprint()] {
			t.Fatalf("duplicate fingerprint for job %q", j.Name())
		}
		seen[j.Fingerprint()] = true
	}
	again, err := ShootoutJobs(pre, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Fingerprint() != again[i].Fingerprint() {
			t.Fatalf("job %d fingerprint unstable across builder calls", i)
		}
	}

	if _, err := ShootoutJobs(Preset{}, nil); err == nil {
		t.Error("ShootoutJobs accepted Runs = 0")
	}
	if _, err := ShootoutJobs(pre, []float64{-5}); err == nil {
		t.Error("ShootoutJobs accepted a negative density")
	}
}

func TestShootoutDataStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated campaign in -short mode")
	}
	pre := shootTestPreset()
	rhos := []float64{30}
	data, err := ShootoutDataCtx(context.Background(), engine.New(engine.Config{Workers: 4}), pre, rhos)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Models) != 3 || data.Models[0] != "CFM" || data.Models[2] != "SINR" {
		t.Fatalf("models = %v", data.Models)
	}
	if len(data.Rows) != 3 {
		t.Fatalf("%d rows, want one per model", len(data.Rows))
	}
	for _, row := range data.Rows {
		if len(row.Schemes) != 4 {
			t.Fatalf("row (%s, %g): %d schemes", row.Model, row.Rho, len(row.Schemes))
		}
		keys := []string{"flooding", "pb", "counter", "distance"}
		for i, s := range row.Schemes {
			if s.Scheme != keys[i] {
				t.Fatalf("row (%s, %g) scheme %d = %q, want %q", row.Model, row.Rho, i, s.Scheme, keys[i])
			}
			if s.Coverage < 0 || s.Coverage > 1 {
				t.Fatalf("scheme %s coverage %g outside [0, 1]", s.Scheme, s.Coverage)
			}
		}
		for _, objective := range []string{"coverage", "reach", "energy", "efficiency"} {
			if row.Best[objective] == "" {
				t.Fatalf("row (%s, %g): no winner under %q", row.Model, row.Rho, objective)
			}
		}
		// Flooding transmits everywhere: no suppression scheme can beat
		// it on raw coverage under CFM, where broadcasts are free.
		if row.Model == "CFM" && row.Best["coverage"] != "flooding" {
			t.Errorf("CFM coverage winner = %q, want flooding (first-wins ties)", row.Best["coverage"])
		}
	}
	// Rows are model-major in (models, rhos) order.
	for i, row := range data.Rows {
		if row.Model != data.Models[i] || row.Rho != 30 {
			t.Errorf("row %d is (%s, %g), want (%s, 30)", i, row.Model, row.Rho, data.Models[i])
		}
	}
}

// TestShootoutDeterministicAcrossWorkers pins the CRN contract: the
// figure (and the underlying cells) are identical for any engine
// worker count, because replication seeds are positional, not
// scheduling-dependent.
func TestShootoutDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated campaign in -short mode")
	}
	pre := shootTestPreset()
	rhos := []float64{30}
	var renders []string
	for _, workers := range []int{1, 4} {
		f, err := ShootoutCtx(context.Background(), engine.New(engine.Config{Workers: workers}), pre, rhos)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := f.Render(&b); err != nil {
			t.Fatal(err)
		}
		renders = append(renders, b.String())
	}
	if renders[0] != renders[1] {
		t.Fatal("shootout render differs between 1 and 4 workers")
	}
	if !strings.Contains(renders[0], "SINR") || !strings.Contains(renders[0], "flooding") {
		t.Fatalf("render missing expected content:\n%s", renders[0])
	}
}

// TestShootoutFigureJobsRoute pins the -figure shootout distribution
// path: FigureJobs must return exactly the campaign's jobs.
func TestShootoutFigureJobsRoute(t *testing.T) {
	pre := shootTestPreset()
	direct, err := ShootoutJobs(pre, []float64{25, 50})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := FigureJobs("shootout", FigureSpec{Analytic: QuickAnalytic(), Sim: pre,
		DegRho: 60, ShootRhos: []float64{25, 50}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(routed) != len(direct) {
		t.Fatalf("FigureJobs(shootout): %d jobs, want %d", len(routed), len(direct))
	}
	for i := range direct {
		if routed[i].Fingerprint() != direct[i].Fingerprint() {
			t.Fatalf("job %d: FigureJobs and ShootoutJobs disagree on identity", i)
		}
	}
}

// TestShootoutSINRDiffersFromCAM guards against the SINR column
// silently running the CAM resolver: at a dense field the physical
// model's graded interference must produce different aggregates than
// CAM's binary collisions for at least one scheme.
func TestShootoutSINRDiffersFromCAM(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated campaign in -short mode")
	}
	pre := shootTestPreset()
	data, err := ShootoutDataCtx(context.Background(), engine.New(engine.Config{Workers: 4}), pre, []float64{60})
	if err != nil {
		t.Fatal(err)
	}
	// One density: one row per model, in ShootoutModels order.
	cam, sinr := data.Rows[1], data.Rows[2]
	if cam.Model != channel.CAM.String() || sinr.Model != channel.ModelSINR.String() {
		t.Fatalf("rows 1 and 2 are %s and %s, want CAM and SINR", cam.Model, sinr.Model)
	}
	same := true
	for i := range cam.Schemes {
		if cam.Schemes[i].Delivered != sinr.Schemes[i].Delivered ||
			cam.Schemes[i].LostColl != sinr.Schemes[i].LostColl {
			same = false
		}
	}
	if same {
		t.Fatal("SINR aggregates identical to CAM at rho=60 for every scheme: the SINR resolver is not being exercised")
	}
}

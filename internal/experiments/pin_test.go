package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sensornet/internal/engine"
)

// jobsDigest hashes the ordered fingerprints of a job set, the same
// way the serving layer derives surface digests: the digest changes
// iff any job's identity (presets, grids, code-version salt) changes.
func jobsDigest(jobs []engine.Job) string {
	h := sha256.New()
	for _, j := range jobs {
		h.Write([]byte(j.Fingerprint()))
		h.Write([]byte{0x1f})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mustJobs unwraps a (jobs, error) builder result.
func mustJobs(jobs []engine.Job, err error) []engine.Job {
	if err != nil {
		panic(err)
	}
	return jobs
}

// TestExistingJobIdentityPinned pins the fingerprint digests of every
// pre-existing campaign's cacheable job set. Cached results are
// immutable under their fingerprints, so an unchanged digest proves
// existing CFM/CAM figure outputs are byte-for-byte reusable — no
// recomputation, no silent drift. If this test fails, either bump
// CacheSalt (results changed deliberately, invalidating old caches) or
// undo the accidental identity change.
func TestExistingJobIdentityPinned(t *testing.T) {
	pa, ps := PaperAnalytic(), PaperSim()
	for _, tc := range []struct {
		name   string
		digest string
		want   string
	}{
		{"analytic-surface",
			jobsDigest(SurfaceJobs(pa, false, 1)),
			"9ae72cc1a999da5bd6a415cfd46f5ffbf444f7071c86e5d91a4db78cf208768b"},
		{"sim-surface",
			jobsDigest(SurfaceJobs(ps, true, 1)),
			"2816d87cbfc213d1376b15eb799c34a0ff7e056fd1faa5b05eb3cecf561172df"},
		{"degradation",
			jobsDigest(mustJobs(FigureJobs("degradation", FigureSpec{Sim: ps, DegRho: 60}))),
			"6f8bf749901cd682bc07e57a8e0363ef23f34dd756a8b54ff4eab4838a643448"},
	} {
		if tc.digest != tc.want {
			t.Errorf("%s job identity drifted:\n got %s\nwant %s\n(cached results keyed by the old fingerprints are now unreachable)",
				tc.name, tc.digest, tc.want)
		}
	}
}

// TestShootoutJobIdentityPinned pins the shootout's job identity one
// channel model at a time, so a change that re-keys one model's cells
// (a new gain formula re-keys SINR alone) shows that the other models'
// cache entries stay valid.
func TestShootoutJobIdentityPinned(t *testing.T) {
	jobs := mustJobs(ShootoutJobs(PaperSim(), nil))
	models := ShootoutModels()
	per := len(jobs) / len(models) // the job set is model-major
	want := map[string]string{
		"CFM":  "d036155ee0b882a4b549f2574bbc47de4edb71b0dd63f7005174b485e2fd5d64",
		"CAM":  "aa9f2f302fc99308e04506547f35981512125e4a4bdab3ea8de5529862b339a0",
		"SINR": "9d43d25f0e3ecf7d2968891c9d4dd1198cd78a71d5e745fc66b614f6b3ff7bb3",
	}
	for i, m := range models {
		if got := jobsDigest(jobs[i*per : (i+1)*per]); got != want[m.String()] {
			t.Errorf("shootout %s job identity drifted:\n got %s\nwant %s", m, got, want[m.String()])
		}
	}
}

// TestCellStudyJobIdentityPinned pins, from birth, the job identity of
// every study that became a keyed job set, at the paper presets and the
// CLI's per-figure parameters: the cell studies, and the analytic
// studies whose draws swept the model or looped over seeds.
func TestCellStudyJobIdentityPinned(t *testing.T) {
	spec := FigureSpec{Analytic: PaperAnalytic(), Sim: PaperSim(), DegRho: 60}
	for _, tc := range []struct{ figure, want string }{
		{"schemes", "c69d779c3a38680b4e11db1af74e217ced4cc860d8cebd60a209c77c9d648800"},
		{"hetero", "c9cdf0c32e7b18471c1672e406f60b698cb267cf4b5fbf49d7de4a7de8b6db0c"},
		{"joint", "4623c250b0182c23784051661500636a3e14f1881ed84a484ec2e208d30739a6"},
		{"collisions", "4473203ddc11c59f060602687d2651c4d1218029073f10494fb794656f9c396d"},
		{"percolation", "1d25db71c3b9578245dacb2a2393cc58d65f055a47a5f22761b253840afd2c38"},
		{"cfm", "d47339120f5de37be70b931c90e9c27421e02c20e6eba612f285c2f173f021c3"},
		{"carrier", "cb137c95a466cf6d12d67c57d7282911be78ed8c32ee465e0faad854d0de5187"},
		{"costfn", "48648d758e5d05ddbc57b796fb4eef9de213706f884fc37efe801248a2326a01"},
		{"slots", "3ff3ad2736f0c28d9051381ad41524d4ff4e8cf0757b1430edd9622ae035d7e8"},
		{"field", "ebcecbb1c25b72c498332fae2efc0953ace4b961e23986acf33d3daff6cf1928"},
		{"refinedcfm", "d5e09fafe1514554a38792513e77ee747262b2cf8c6e6c93abc7aa1a61346ec7"},
		{"mumode", "2f28492bfd65d7110c1aa10d18605f3ffbda4a5656fd8fd12e3355c322e21709"},
	} {
		got := jobsDigest(mustJobs(FigureJobs(tc.figure, spec)))
		if got != tc.want {
			t.Errorf("%s job identity drifted:\n got %s\nwant %s", tc.figure, got, tc.want)
		}
	}
}

// namedJobsDigest hashes the ordered names and fingerprints of a job
// set: the names are what a -merge -json missing-shard report prints,
// so they drift as visibly as the keys.
func namedJobsDigest(jobs []engine.Job) string {
	h := sha256.New()
	for _, j := range jobs {
		h.Write([]byte(j.Name()))
		h.Write([]byte{0x1f})
		h.Write([]byte(j.Fingerprint()))
		h.Write([]byte{0x1e})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFigureJobNamesPinned pins every figure's job names and
// fingerprints together, at the paper presets and the CLI's per-figure
// parameters, "all" and "shootout" included.
func TestFigureJobNamesPinned(t *testing.T) {
	spec := FigureSpec{Analytic: PaperAnalytic(), Sim: PaperSim(), DegRho: 60}
	want := map[string]string{
		"fig4":        "8cca5cb315a3753724e92c41b669929245e0fcba9715ca1f97508fe3ebf7d2b4",
		"fig5":        "8cca5cb315a3753724e92c41b669929245e0fcba9715ca1f97508fe3ebf7d2b4",
		"fig6":        "8cca5cb315a3753724e92c41b669929245e0fcba9715ca1f97508fe3ebf7d2b4",
		"fig7":        "8cca5cb315a3753724e92c41b669929245e0fcba9715ca1f97508fe3ebf7d2b4",
		"fig8":        "48e13782a9c51d832b686f39d9b7e557f7471de3950395c744a1ae4750aadc94",
		"fig9":        "48e13782a9c51d832b686f39d9b7e557f7471de3950395c744a1ae4750aadc94",
		"fig10":       "48e13782a9c51d832b686f39d9b7e557f7471de3950395c744a1ae4750aadc94",
		"fig11":       "48e13782a9c51d832b686f39d9b7e557f7471de3950395c744a1ae4750aadc94",
		"fig12":       "8cca5cb315a3753724e92c41b669929245e0fcba9715ca1f97508fe3ebf7d2b4",
		"fig12sim":    "9947b95fea5fad7f2e09247848d330b3cd4251f35ecfdb8ad632d74c8326c78f",
		"cfm":         "6e3455f73f9672934720ba61edde5aecc3e6686f1eca3b3545a8edab7aa4c6aa",
		"carrier":     "9e54d100a7f5b51a39ce50ece375c9218955b7f6fd22b51ab6f87f86de4317bf",
		"costfn":      "2196674926f2832b5ded95491a7f333846f67c66bb72ba066e153c285bfd5829",
		"percolation": "ccf77fd0f5928b09a43522e6145274094c4cedc06d33157d302344ccf7f1bc16",
		"collisions":  "67cff7d94b81c15c33a1f254d4e2ec45091fdbf77f70a2fa0250765be3fa2194",
		"slots":       "011f5e3352cf4fa368b578803a4ea16d9c1866a21941e8b8bb0500f8208b4434",
		"field":       "52fb79d6b572f2622a95b40959e753bb76cbcf9f9e63308b79a25af3c28350cc",
		"schemes":     "455d941bbd058a7e58ca317ca89f5700cf1ab78e9bccbb15809b98a921d2a315",
		"hetero":      "ce4d6c89001ee21c80bc12d06b46349a7d5927f5d842b79079fdc95f446ede59",
		"refinedcfm":  "9f8f7313c7abcdc70b702ebd739f93d434f51cf004366559ffefad85955c6849",
		"joint":       "545d04b8939067af4486fe9558ed9c583b78c52cf29468d79f4080f09c4d7f19",
		"mumode":      "1d0314b059a048f44da337000f3e60a330d2983231394e7481980588e298fe92",
		"degradation": "1091f583aa61d4dad1920bc1fa10ced1ddde6c665543d6c3d79e615e369b2983",
		"shootout":    "2a6a3d5cb490cfdc3126262a77517accdda946aacef3d87959ee2871fdb64517",
		"all":         "b574cee25668248ee1016684268f369c88ffa8835f55fd08e524cf04cad1d895",
	}
	for _, id := range FigureIDs() {
		got := namedJobsDigest(mustJobs(FigureJobs(id, spec)))
		if got != want[id] {
			t.Errorf("%s job names or fingerprints drifted:\n got %s\nwant %s", id, got, want[id])
		}
	}
	if len(want) != len(FigureIDs()) {
		t.Errorf("%d figures pinned, want every one of the %d FigureIDs", len(want), len(FigureIDs()))
	}
}

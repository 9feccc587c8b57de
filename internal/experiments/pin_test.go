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
			"b6afe5f5e02ac10dc4803a8c46fa42c13766f6382feb611a7c0e9107713fc97b"},
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
		{"cfm", "f58ee285f5e7eb16bbfb6615ab09b8c5d5a77388eed4b03090f7aec9ec501e18"},
		{"carrier", "bb7774168cd3323ca027e8d2a88b58572af6a5aa52bbc40e221a9afe5b2efca0"},
		{"costfn", "48648d758e5d05ddbc57b796fb4eef9de213706f884fc37efe801248a2326a01"},
		{"slots", "ab1c6ad371875c8a26a1a9c6fab03a03784aa0cbc3cf008d53c84a758912a034"},
		{"field", "564fa28d4859ce0b37744d16e1346ea2eabeef099a28cdd38eb45e00fd4de20b"},
		{"refinedcfm", "d5e09fafe1514554a38792513e77ee747262b2cf8c6e6c93abc7aa1a61346ec7"},
		{"mumode", "43e9c68a1f484a97d5373a74dab0c96185ae467349b8881cd1962a50f9838793"},
	} {
		got := jobsDigest(mustJobs(FigureJobs(tc.figure, spec)))
		if got != tc.want {
			t.Errorf("%s job identity drifted:\n got %s\nwant %s", tc.figure, got, tc.want)
		}
	}
}

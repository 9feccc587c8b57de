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
			"a832d424d661879d611763dee1c4e10f2e90d15e0caa8c491a2ed64ea5e770f0"},
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

// TestShootoutJobIdentityPinned pins the new campaign's own job
// identity from birth, so future refactors can prove shootout caches
// stay valid the same way.
func TestShootoutJobIdentityPinned(t *testing.T) {
	got := jobsDigest(mustJobs(ShootoutJobs(PaperSim(), nil)))
	const want = "58288a3c201d918111561288714880df39a596e5587a1645e90f45cebf713b8d"
	if got != want {
		t.Errorf("shootout job identity drifted:\n got %s\nwant %s", got, want)
	}
}

// TestCellStudyJobIdentityPinned pins, from birth, the job identity of
// every study that became a keyed cell-job set, at the paper presets
// and the CLI's per-figure parameters.
func TestCellStudyJobIdentityPinned(t *testing.T) {
	spec := FigureSpec{Analytic: PaperAnalytic(), Sim: PaperSim(), DegRho: 60}
	for _, tc := range []struct{ figure, want string }{
		{"schemes", "c69d779c3a38680b4e11db1af74e217ced4cc860d8cebd60a209c77c9d648800"},
		{"hetero", "c9cdf0c32e7b18471c1672e406f60b698cb267cf4b5fbf49d7de4a7de8b6db0c"},
		{"joint", "4623c250b0182c23784051661500636a3e14f1881ed84a484ec2e208d30739a6"},
		{"collisions", "4473203ddc11c59f060602687d2651c4d1218029073f10494fb794656f9c396d"},
		{"percolation", "1d25db71c3b9578245dacb2a2393cc58d65f055a47a5f22761b253840afd2c38"},
	} {
		got := jobsDigest(mustJobs(FigureJobs(tc.figure, spec)))
		if got != tc.want {
			t.Errorf("%s job identity drifted:\n got %s\nwant %s", tc.figure, got, tc.want)
		}
	}
}

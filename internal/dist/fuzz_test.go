package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// The request kinds FuzzCoordinatorRequest decodes, one per input byte
// modulo fuzzKinds. Each kind reads its arguments from the bytes that
// follow it.
const (
	fuzzLease     = iota // worker; the next sequence number
	fuzzHeartbeat        // worker, lease
	fuzzPayload          // worker, lease, fingerprint
	fuzzFailure          // worker, lease, fingerprint
	fuzzStatus           // —
	fuzzAdvance          // step: (step%4+1) half TTLs
	fuzzRaw              // path, length n, then n body bytes
	fuzzBatch            // worker, max (0–4), seq (0–3)
	fuzzKinds
)

// FuzzCoordinatorRequest drives one coordinator, over a fake sink and a
// fake clock, through a sequence of protocol requests decoded from the
// input: leases, batch leases with a Max and a Seq, heartbeats, result
// posts carrying a payload or an error, status reads, clock advances
// past the lease TTL, and raw bytes as a request body. Lease IDs and
// fingerprints are drawn from those the coordinator issued so far, or
// are unknown to it. Every request's context has ended, so a lease
// request that finds nothing leasable is answered without parking.
// After every request it checks that the coordinator did not panic,
// answered a known status with a body matching its X-Body-Sum, kept
// every job in exactly one state, ingested each fingerprint at most
// once and counted each ingest, and, once done, granted no lease. A
// grant never exceeds its Max or its factoring share of the pending
// jobs, a request repeating its worker's last Seq leases nothing new,
// and a lease request answered with an error status, as one without a
// Seq is, leases nothing.
func FuzzCoordinatorRequest(f *testing.F) {
	const ttl = time.Second
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, data []byte) {
		clock := newFakeClock()
		sink := newFakeSink()
		sink.failFor["bad"] = true
		fps := []string{"a", "b", "c", "bad"}
		c, err := NewCoordinator(Config{Sink: sink, LeaseTTL: ttl, MaxJobFailures: 2,
			Now: clock.Now}, jobsFor(fps...))
		if err != nil {
			t.Fatal(err)
		}

		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// pick draws from the values issued so far, or, one index past
		// them, a value the coordinator never issued.
		pick := func(issued []string, unknown string) string {
			if i := next() % (len(issued) + 1); i < len(issued) {
				return issued[i]
			}
			return unknown
		}
		worker := func() string { return "w" + strconv.Itoa(next()%2) }
		var leaseIDs, leasedFPs []string
		// lastSeq and grant model each worker's last lease request
		// sequence number and the lease it was granted.
		lastSeq := map[string]int64{}
		grant := map[string]string{}

		for step := 0; len(data) > 0; step++ {
			wasDone := isDone(c)
			before := c.Stats()
			kind := next() % fuzzKinds
			method, path := http.MethodPost, PathResult
			var body []byte
			switch kind {
			case fuzzLease:
				path = PathLease
				w := worker()
				body, _ = json.Marshal(LeaseRequest{Worker: w, Seq: lastSeq[w] + 1})
			case fuzzHeartbeat:
				path = PathHeartbeat
				body, _ = json.Marshal(HeartbeatRequest{Worker: worker(), LeaseID: pick(leaseIDs, "lease-0")})
			case fuzzPayload, fuzzFailure:
				req := ResultRequest{Worker: worker(), LeaseID: pick(leaseIDs, ""),
					Fingerprint: pick(leasedFPs, "unknown")}
				if kind == fuzzPayload {
					req.Payload = []byte(`1`)
				} else {
					req.Error = "boom"
				}
				body, _ = json.Marshal(req)
			case fuzzStatus:
				method, path = http.MethodGet, PathStatus
			case fuzzAdvance:
				clock.Advance(time.Duration(next()%4+1) * ttl / 2)
				continue
			case fuzzRaw:
				path = []string{PathLease, PathHeartbeat, PathResult}[next()%3]
				n := min(next()%32, len(data))
				body, data = data[:n], data[n:]
			case fuzzBatch:
				path = PathLease
				body, _ = json.Marshal(LeaseRequest{Worker: worker(), Max: next() % 5, Seq: int64(next() % 4)})
			}

			rec := httptest.NewRecorder()
			c.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ended))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
				http.StatusInternalServerError:
			default:
				t.Fatalf("step %d: %s %s answered %d", step, method, path, rec.Code)
			}
			if got, want := rec.Header().Get(HeaderBodySum), bodySum(rec.Body.Bytes()); got != want {
				t.Fatalf("step %d: %s %s: %s %q does not match the body's %q", step, method, path, HeaderBodySum, got, want)
			}
			s := c.Stats()
			newly := leasedJobs(s) - leasedJobs(before)
			if path == PathLease && rec.Code != http.StatusOK && newly != 0 {
				t.Fatalf("step %d: a lease request answered %d leased %d job(s)", step, rec.Code, newly)
			}
			if path == PathLease && rec.Code == http.StatusOK {
				var req LeaseRequest
				var l LeaseResponse
				if err := json.Unmarshal(body, &req); err != nil {
					t.Fatalf("step %d: the coordinator took lease body %q, the model cannot: %v", step, body, err)
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil {
					t.Fatalf("step %d: lease response %q: %v", step, rec.Body.Bytes(), err)
				}
				if req.Seq <= 0 {
					t.Fatalf("step %d: a lease request with seq %d was answered %+v, not rejected", step, req.Seq, l)
				}
				if len(l.Jobs) != 0 && wasDone {
					t.Fatalf("step %d: a done coordinator leased %+v", step, l)
				}
				if req.Seq == lastSeq[req.Worker] {
					if newly != 0 || (l.LeaseID != "" && l.LeaseID != grant[req.Worker]) {
						t.Fatalf("step %d: replay of %s's seq %d leased %d new job(s), answered %+v (its grant was %q)",
							step, req.Worker, req.Seq, newly, l, grant[req.Worker])
					}
				} else {
					if newly != len(l.Jobs) {
						t.Fatalf("step %d: a grant of %d job(s) leased %d", step, len(l.Jobs), newly)
					}
					live := 0
					for _, w := range s.Workers {
						if w.LastSeenAgoMillis < ttl.Milliseconds() {
							live++
						}
					}
					share := (s.Pending + len(l.Jobs) + 2*live - 1) / (2 * live)
					if len(l.Jobs) > max(req.Max, 1) || len(l.Jobs) > share {
						t.Fatalf("step %d: granted %d job(s) against max %d and share %d", step, len(l.Jobs), req.Max, share)
					}
					lastSeq[req.Worker], grant[req.Worker] = req.Seq, l.LeaseID
					if len(l.Jobs) != 0 {
						leaseIDs = append(leaseIDs, l.LeaseID)
						for _, j := range l.Jobs {
							leasedFPs = append(leasedFPs, j.Fingerprint)
						}
					}
				}
			}

			if s.Pending+s.Leased+s.Completed+s.Failed != s.Jobs {
				t.Fatalf("step %d: pending %d + leased %d + completed %d + failed %d != %d jobs",
					step, s.Pending, s.Leased, s.Completed, s.Failed, s.Jobs)
			}
			if s.Done() != isDone(c) {
				t.Fatalf("step %d: stats say done=%v, the Done channel %v", step, s.Done(), isDone(c))
			}
			distinct := 0
			for _, fp := range fps {
				switch n := sink.ingests(fp); {
				case n > 1:
					t.Fatalf("step %d: %s ingested %d times", step, fp, n)
				case n == 1:
					distinct++
				}
			}
			if s.Ingested != distinct {
				t.Fatalf("step %d: Ingested = %d, the sink holds %d fingerprints", step, s.Ingested, distinct)
			}
		}
	})
}

// leasedJobs is the number of jobs ever leased, summed over workers.
func leasedJobs(s Stats) int {
	n := 0
	for _, w := range s.Workers {
		n += w.Leased
	}
	return n
}

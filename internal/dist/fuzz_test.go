package dist

import (
	"bytes"
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
	fuzzLease     = iota // worker
	fuzzHeartbeat        // worker, lease
	fuzzPayload          // worker, lease, fingerprint
	fuzzFailure          // worker, lease, fingerprint
	fuzzStatus           // —
	fuzzAdvance          // step: (step%4+1) half TTLs
	fuzzRaw              // path, length n, then n body bytes
	fuzzKinds
)

// FuzzCoordinatorRequest drives one coordinator, over a fake sink and a
// fake clock, through a sequence of protocol requests decoded from the
// input: leases, heartbeats, result posts carrying a payload or an
// error, status reads, clock advances past the lease TTL, and raw bytes
// as a request body. Lease IDs and fingerprints are drawn from those
// the coordinator issued so far, or are unknown to it. After every
// request it checks that the coordinator did not panic, answered a
// known status with a body matching its X-Body-Sum, kept every job in
// exactly one state, ingested each fingerprint at most once and
// counted each ingest, and, once done, granted no lease.
func FuzzCoordinatorRequest(f *testing.F) {
	const ttl = time.Second
	f.Fuzz(func(t *testing.T, data []byte) {
		clock := newFakeClock()
		sink := newFakeSink()
		sink.failFor["bad"] = true
		fps := []string{"a", "b", "c", "bad"}
		c, err := NewCoordinator(Config{Sink: sink, LeaseTTL: ttl, MaxJobFailures: 2,
			IngestBurst: 2, IngestWindow: ttl, Now: clock.Now}, jobsFor(fps...))
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

		for step := 0; len(data) > 0; step++ {
			wasDone := isDone(c)
			kind := next() % fuzzKinds
			method, path := http.MethodPost, PathResult
			var body []byte
			switch kind {
			case fuzzLease:
				path = PathLease
				body, _ = json.Marshal(LeaseRequest{Worker: worker()})
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
			}

			rec := httptest.NewRecorder()
			c.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
				http.StatusTooManyRequests, http.StatusInternalServerError:
			default:
				t.Fatalf("step %d: %s %s answered %d", step, method, path, rec.Code)
			}
			if got, want := rec.Header().Get(HeaderBodySum), bodySum(rec.Body.Bytes()); got != want {
				t.Fatalf("step %d: %s %s: %s %q does not match the body's %q", step, method, path, HeaderBodySum, got, want)
			}
			if path == PathLease && rec.Code == http.StatusOK {
				var l LeaseResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil {
					t.Fatalf("step %d: lease response %q: %v", step, rec.Body.Bytes(), err)
				}
				if l.Job != nil {
					if wasDone {
						t.Fatalf("step %d: a done coordinator leased %+v", step, l)
					}
					leaseIDs = append(leaseIDs, l.LeaseID)
					leasedFPs = append(leasedFPs, l.Job.Fingerprint)
				}
			}

			s := c.Stats()
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

package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Start and End are seconds
// since the recorder's epoch; Parent is 0 for a root. Run numbers the
// campaign (or serving phase) the span belongs to.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs stay free of tracing
// cost: every method is safe on nil.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open is a span that has started and not yet ended. Its ID is fixed at
// start, so children can name it as their parent while it runs.
type open struct {
	r      *recorder
	id     int64
	parent int64
	run    int
	name   string
	start  time.Time
}

// begin starts a span.
func (r *recorder) begin(run int, parent int64, name string) open {
	if r == nil {
		return open{}
	}
	return open{r: r, id: r.next.Add(1), parent: parent, run: run, name: name, start: time.Now()}
}

// end records the span with the current time as its end and returns
// its duration (0 on a nil recorder).
func (o open) end() time.Duration {
	if o.r == nil {
		return 0
	}
	now := time.Now()
	o.r.store(o.id, o.parent, o.run, o.name, o.start, now)
	return now.Sub(o.start)
}

// add records a span timed by the caller and returns its ID.
func (r *recorder) add(run int, parent int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	id := r.next.Add(1)
	r.store(id, parent, run, name, start, end)
	return id
}

// reserve allocates an ID for a span whose times are recorded later
// with addAs.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// addAs records a span under an ID taken from reserve.
func (r *recorder) addAs(id int64, run int, parent int64, name string, start, end time.Time) {
	if r != nil {
		r.store(id, parent, run, name, start, end)
	}
}

func (r *recorder) store(id, parent int64, run int, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(r.epoch).Seconds(), End: end.Sub(r.epoch).Seconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats summarises a span set by name: summed self time and count.
// A span's self time is its duration minus its direct children's
// durations, clamped at zero. Children may be replays — work re-run
// outside the parent's interval to split an opaque call into its layers
// — and subtract the same way, so a parent's self time is the part of
// it its children do not explain.
type spanStats struct {
	self  map[string]float64
	total map[string]float64
	count map[string]int
	// allSelf is the summed self time of every span: the span-seconds
	// the trace accounts for, parallel spans counted once each.
	allSelf float64
}

func summarise(spans []span) spanStats {
	child := map[int64]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	st := spanStats{self: map[string]float64{}, total: map[string]float64{}, count: map[string]int{}}
	for _, s := range spans {
		self := math.Max(0, s.dur()-child[s.ID])
		st.self[s.Name] += self
		st.total[s.Name] += s.dur()
		st.count[s.Name]++
		st.allSelf += self
	}
	return st
}

// layerShare is the fraction of all span self time spent in the given
// layers, a span's layer being its name's first element ("deploy" for
// "deploy.generate").
func layerShare(spans []span, layers ...string) float64 {
	st := summarise(spans)
	in := 0.0
	for name, v := range st.self {
		layer, _, _ := strings.Cut(name, ".")
		if slices.Contains(layers, layer) {
			in += v
		}
	}
	return ratio(in, st.allSelf)
}

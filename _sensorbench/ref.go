package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// The two campaign workloads run on one processor and report their
// times at a nominal host speed. The shared two-vCPU host this
// benchmark was built on lends its second core unevenly and changes
// speed by tens of percent over minutes, so a raw wall time reads the
// host's load as much as the program. On one processor a campaign's
// wall time follows its CPU time; between campaigns the run times a
// fixed reference kernel that no change to the repository touches, and
// each campaign's times are scaled by refNominal over the kernel's mean
// time just before and just after it. A change to the program moves the campaigns and
// not the kernel, so it moves the scaled figures by the same share as
// the raw ones. The raw campaign wall time and the kernel's time are
// reported beside them.

// refNominal is the reference kernel's time at nominal host speed: about
// its median on the host the benchmark was built on.
const refNominal = 55 * time.Millisecond

// refSink keeps the reference kernel's result alive.
var refSink float64

// xorshift is the kernels' fixed pseudo-random sequence.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// refKernel is a fixed amount of pure-Go work in the mix the campaigns
// spend their time on: powers and sorts, as in the simulation and the
// analytic jobs, then JSON encoding and decoding, hashing and map
// updates of small records, as in the job codecs, the dist protocol and
// the cache.
func refKernel() {
	x := xorshift(88172645463325252)
	next := x.next
	s := 0.0
	buf := make([]float64, 0, 2048)
	for i := 0; i < 150000; i++ {
		v := float64(next()%10000)/100 + 0.5
		s += math.Pow(v, -3)
		buf = append(buf, v)
		if len(buf) == cap(buf) {
			sort.Float64s(buf)
			s += buf[len(buf)/2]
			buf = make([]float64, 0, 2048)
		}
	}

	type record struct {
		Name  string    `json:"name"`
		Rho   float64   `json:"rho"`
		Cells []float64 `json:"cells"`
	}
	m := map[uint64]float64{}
	for i := 0; i < 1000; i++ {
		r := record{Name: fmt.Sprintf("job-%d", i), Rho: float64(next()%200) + 0.5, Cells: make([]float64, 32)}
		for k := range r.Cells {
			r.Cells[k] = math.Pow(float64(next()%1000)/10+0.5, -1.5)
		}
		b, err := json.Marshal(r)
		var back record
		if err == nil {
			err = json.Unmarshal(b, &back)
		}
		if err != nil {
			panic(err) // a fixed record always round-trips
		}
		sum := sha256.Sum256(b)
		m[binary.LittleEndian.Uint64(sum[:8])%4096] += back.Rho
		sort.Float64s(back.Cells)
		s += back.Cells[16]
	}
	refSink += s + float64(len(m))
}

// hostSpeed times the reference kernel between a run's campaigns.
type hostSpeed struct{ refs []float64 }

// sample times the reference kernel once.
func (h *hostSpeed) sample() {
	start := time.Now()
	refKernel()
	h.refs = append(h.refs, time.Since(start).Seconds())
}

// scale is the factor that brings a campaign's times to nominal host
// speed, for a campaign between the last two samples: refNominal over
// their mean. The host's speed changes within seconds, so the samples
// next to a campaign track it better than the run's median.
func (h *hostSpeed) scale() float64 {
	n := len(h.refs)
	if n < 2 {
		return 1
	}
	return ratio(refNominal.Seconds(), (h.refs[n-2]+h.refs[n-1])/2)
}

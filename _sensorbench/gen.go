package main

import (
	"sync"
	"syscall"
	"time"
)

// shot is one scheduled call of an open-loop level. Times are offsets
// from the level's start: Due when the schedule wanted it sent,
// Dispatched when the generator released it, Sent when a sender took it
// and sent it, Done when its response was complete.
type shot struct {
	Due, Dispatched, Sent, Done time.Duration
	OK                          bool
}

// Latency is the call's time from its due time to completion, so a
// stall that holds up later calls counts against each of them.
func (s shot) Latency() time.Duration { return s.Done - s.Due }

// Late is the generator's own lateness: how long after its due time the
// call was released. Waiting for a free sender after that is latency,
// not lateness.
func (s shot) Late() time.Duration { return s.Dispatched - s.Due }

// Queued is how long the call waited for a free sender.
func (s shot) Queued() time.Duration { return s.Sent - s.Dispatched }

// openLoop sends n calls on a fixed schedule — one every 1/rate seconds
// — from conns senders, whatever earlier calls are doing: independent
// users, not callers waiting on replies. One generator releases each
// call at its due time; a free sender sends it, and when every sender
// is busy, released calls queue. call(i) performs the i-th call and
// reports whether it succeeded. openLoop returns the level's start time
// once every call has completed.
func openLoop(rate float64, n, conns int, call func(i int) bool) ([]shot, time.Time) {
	shots := make([]shot, n)
	for i := range shots {
		shots[i].Due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	released := make(chan int, n) // sized to the number of sends: release never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range released {
				s := &shots[i]
				s.Sent = time.Since(start)
				s.OK = call(i)
				s.Done = time.Since(start)
			}
		}()
	}
	for i := range shots {
		if wait := shots[i].Due - time.Since(start); wait > 0 {
			sleep(wait)
		}
		shots[i].Dispatched = time.Since(start)
		released <- i
	}
	close(released)
	wg.Wait()
	return shots, start
}

// sleep blocks the calling thread for d. The runtime's timers wake a
// sleeper that has nothing else to run only to the millisecond, which at
// a few thousand calls per second would make the generator, not the
// server, set the latency; nanosleep keeps it to tens of microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

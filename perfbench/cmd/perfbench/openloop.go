package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// timing is the schedule of one open-loop request, relative to the
// loop's start.
type timing struct {
	due, sent, done time.Duration
}

// latency is the request's time from when it was due to completion, so
// a stall that delays later sends is charged to those requests too.
func (t timing) latency() time.Duration { return t.done - t.due }

// late is how long after its due time the request was sent.
func (t timing) late() time.Duration { return t.sent - t.due }

// openLoop offers n requests at rate per second: request k is due at
// k/rate, whether or not earlier requests have completed. At most conns
// requests are outstanding (one per connection); when all are busy the
// next request waits and is sent late. after(k) names an earlier request
// that must complete before k is sent (-1: none), which keeps one
// session's requests in order. send performs request k.
func openLoop(n int, rate float64, conns int, after func(k int) int, send func(k int)) []timing {
	t := make([]timing, n)
	done := make([]chan struct{}, n)
	for k := range done {
		done[k] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				// Requests are claimed in order, so request j < k is
				// already claimed by a sender that will finish it.
				if j := after(k); j >= 0 {
					<-done[j]
				}
				due := time.Duration(float64(k) / rate * float64(time.Second))
				sleepUntil(start.Add(due))
				t[k].due = due
				t[k].sent = time.Since(start)
				send(k)
				t[k].done = time.Since(start)
				close(done[k])
			}
		}()
	}
	wg.Wait()
	return t
}

// sleepUntil returns at t. The runtime's timers wake through a poller
// with millisecond resolution, so time.Sleep returns about half a
// millisecond late on average; the last millisecond is slept with
// nanosleep(2) instead, which blocks only the calling thread.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only returns early
	}
}

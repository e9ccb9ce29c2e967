package main

import (
	"sync"
	"time"
)

// The load generator is an open loop: request i of a segment is due at
// start + i/rate whatever happened to the requests before it, so a stall
// in the daemon makes later requests wait instead of arriving later.
// Latency is counted from the due time, which charges that wait to the
// system; how late the generator itself released each request (send time
// minus due time) is reported beside it so a slow generator is visible.

// clock is the time source of the scheduler; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// schedule releases n requests due at start + i·interval, calling release
// for each once its due time has passed. The schedule never shifts: after
// a stall every overdue request is released at once, each keeping its own
// due time. It returns the start time.
func schedule(clk clock, n int, interval time.Duration, release func(i int, due time.Time)) time.Time {
	start := clk.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if clk.Now().Before(due) {
			clk.SleepUntil(due)
		}
		release(i, due)
	}
	return start
}

// outcome is what happened to one released request.
type outcome struct {
	kind            reqKind
	conn            int
	due, sent, done time.Time
	ok              bool
	// backlog is how many released requests were still waiting for a
	// connection when this one was released.
	backlog int
}

// runOpenLoop sends reqs at rate per second over `workers` connections and
// returns one outcome per request, in schedule order. do performs a
// request on the given connection and reports whether it succeeded.
func runOpenLoop(clk clock, reqs []request, rate float64, workers int, do func(conn int, r *request) bool) []outcome {
	out := make([]outcome, len(reqs))
	// Sized to the number of sends, so the generator never blocks on a
	// slow daemon: the backlog shows up as queue length and lateness.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.conn = c
				o.sent = clk.Now()
				o.ok = do(c, &reqs[i])
				o.done = clk.Now()
			}
		}(c)
	}
	interval := time.Duration(float64(time.Second) / rate)
	schedule(clk, len(reqs), interval, func(i int, due time.Time) {
		out[i].kind = reqs[i].kind
		out[i].due = due
		out[i].backlog = len(queue)
		queue <- i
	})
	close(queue)
	wg.Wait()
	return out
}

// segmentStats summarizes one segment of open-loop traffic.
type segmentStats struct {
	n, failed int
	// latMs are read latencies from due time, in ms, schedule order;
	// byKind splits them per endpoint. Reloads are not reads and are
	// left out of both.
	latMs  []float64
	byKind map[reqKind][]float64
	// lateMs is send time minus due time per request, in ms.
	lateMs     []float64
	backlogMax int
	// growing reports a backlog that rose across the segment: the mean
	// backlog over its last quarter exceeds that over its first quarter
	// by more than the number of connections.
	growing bool
	// windowP99 is the read p99 of each window of perWindow consecutive
	// requests, and windowsSupported whether every one of them has
	// minBeyond samples beyond it.
	windowP99        []float64
	windowsSupported bool
}

// summarize reduces a segment's outcomes; perWindow is the number of
// requests in one window of the windowed p99 (a second's worth).
func summarize(outs []outcome, workers, perWindow int) segmentStats {
	s := segmentStats{n: len(outs), byKind: map[reqKind][]float64{}, windowsSupported: true}
	for _, o := range outs {
		if !o.ok {
			s.failed++
		}
		s.lateMs = append(s.lateMs, float64(o.sent.Sub(o.due))/1e6)
		if o.kind != reqReload {
			lat := float64(o.done.Sub(o.due)) / 1e6
			s.latMs = append(s.latMs, lat)
			s.byKind[o.kind] = append(s.byKind[o.kind], lat)
		}
		if o.backlog > s.backlogMax {
			s.backlogMax = o.backlog
		}
	}
	if q := len(outs) / 4; q > 0 {
		var head, tail float64
		for i := 0; i < q; i++ {
			head += float64(outs[i].backlog)
			tail += float64(outs[len(outs)-1-i].backlog)
		}
		s.growing = (tail-head)/float64(q) > float64(workers)
	}
	// Equal windows of about perWindow reads each, at least one.
	n := len(s.latMs)
	k := max(1, n/max(1, perWindow))
	for w := 0; w < k; w++ {
		v, ok := percentile(sortedCopy(s.latMs[w*n/k:(w+1)*n/k]), 99)
		s.windowP99 = append(s.windowP99, v)
		s.windowsSupported = s.windowsSupported && ok
	}
	return s
}

// p returns the p-th percentile latency of the segment in ms.
func (s segmentStats) p(p float64) float64 {
	v, _ := percentile(sortedCopy(s.latMs), p)
	return v
}

// tailMs is the segment's p99 as the end-to-end metric reports it: the
// median over its one-second windows of each window's p99. On a shared
// machine other tenants stall the daemon and the generator now and then
// for tens of milliseconds; one such stall sets the p99 of the window it
// lands in but not the median over ten windows, so the metric moves with
// the daemon's latency rather than with how many stalls a run caught.
func (s segmentStats) tailMs() float64 { return median(s.windowP99) }

// ladderStep is the verdict on one rate of the capacity ladder.
type ladderStep struct {
	rate      float64
	p99Ms     float64
	n, failed int
	grow      bool
}

func (s ladderStep) pass(limitMs float64) bool {
	return s.failed == 0 && !s.grow && s.p99Ms <= limitMs
}

// ladder finds the highest rate in rates (ascending) that passes, trying
// each failing rate once more before believing it: a single step can fail
// on a passing rate when something else on the machine stalls it. Rates
// are probed by bisection, on the assumption that a rate passes only if
// every lower one does. It returns the highest passing rate (0 if none)
// and every step run, in order.
func ladder(rates []float64, limitMs float64, run func(rate float64) ladderStep) (float64, []ladderStep) {
	var steps []ladderStep
	passes := func(rate float64) bool {
		for try := 0; try < 2; try++ {
			st := run(rate)
			steps = append(steps, st)
			if st.pass(limitMs) {
				return true
			}
		}
		return false
	}
	lo, hi := -1, len(rates) // rates[lo] passes, rates[hi] fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if passes(rates[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, steps
	}
	return rates[lo], steps
}

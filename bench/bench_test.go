package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// runFitPhase re-executes itself as the fit child.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-child-fit" {
		if err := childMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true}, // 10 samples beyond rank 990
		{999, 99, 990, false}, // 9 beyond
		{20, 50, 10, true},    // 10 beyond
		{19, 50, 10, false},   // 9 beyond
		{100, 90, 90, true},   // exactly 10 beyond
		{100, 95, 95, false},  // 5 beyond
		{1, 50, 1, false},     // nothing beyond
		{10000, 99.9, 9990, true},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{seq(10), 5.5, 2.75, 8.25},
		{seq(4), 2.5, 1.25, 3.75},
		{seq(2), 1.5, 0.75, 2.25},
		{[]float64{5, 1, 3}, 3, 1, 5},
		{[]float64{7}, 7, 7, 7},
		{[]float64{0.31, 0.29, 0.35, 0.30, 0.33, 0.40, 0.28}, 0.31, 0.29, 0.35},
	} {
		q1, q3 := quartiles(tc.xs)
		if med := median(tc.xs); math.Abs(med-tc.med) > 1e-12 || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("%v: median %v quartiles [%v, %v]; want %v [%v, %v]", tc.xs, med, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{9, 10, 10, 10, 11}); math.Abs(s-0.1) > 1e-12 {
		t.Errorf("spread = %v, want 0.1", s)
	}
}

func TestJudgeAppliesBound(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"within bound", steady, shifted(1.05), false, "ok"},
		{"worse than bound", steady, shifted(1.30), false, "REGRESSION"},
		{"higher is better, dropped", steady, shifted(0.80), true, "REGRESSION"},
		{"higher is better, rose", steady, shifted(1.30), true, "better"},
		{"every run faster", steady, shifted(0.5), false, "better"},
		{"noisy side", steady, noisy, false, "unresolved"},
		{"noisy base", noisy, shifted(1.05), false, "unresolved"},
	} {
		v := judge(tc.a, tc.b, tc.higher, 0.10)
		if got := v.verdict; len(got) < len(tc.want) || got[:len(tc.want)] != tc.want {
			t.Errorf("%s: verdict %q, want %q…", tc.name, got, tc.want)
		}
	}
}

// fakeClock advances only when the scheduler sleeps or a test stalls it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestScheduleKeepsDueTimesThroughAStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const interval = time.Millisecond
	var outs []outcome
	start := schedule(clk, 10, interval, func(i int, due time.Time) {
		o := outcome{due: due, sent: clk.Now()}
		if i == 3 {
			clk.now = clk.now.Add(5500 * time.Microsecond) // the generator stalls
		}
		o.done = clk.Now().Add(100 * time.Microsecond)
		o.ok = true
		outs = append(outs, o)
	})
	for i, o := range outs {
		if want := start.Add(time.Duration(i) * interval); !o.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v: a stall must not shift the schedule", i, o.due.Sub(start), want.Sub(start))
		}
	}
	s := summarize(outs, 1, 10)
	// Requests 4..8 were due during the stall and went out at its end,
	// 8.5 ms after start; request 9 was due after it and is on time.
	wantLate := []float64{0, 0, 0, 0, 4.5, 3.5, 2.5, 1.5, 0.5, 0}
	for i, w := range wantLate {
		if math.Abs(s.lateMs[i]-w) > 1e-9 {
			t.Errorf("request %d late %.3f ms, want %.3f", i, s.lateMs[i], w)
		}
	}
	// Latency counts from the due time, so the stall is charged to the
	// requests it delayed (request 3 itself finished after the stall).
	if got, want := s.latMs[3], 5.6; math.Abs(got-want) > 1e-9 {
		t.Errorf("request 3 latency %.3f ms, want %.3f", got, want)
	}
	if got, want := s.latMs[4], 4.6; math.Abs(got-want) > 1e-9 {
		t.Errorf("request 4 latency %.3f ms, want %.3f", got, want)
	}
	if s.failed != 0 || s.n != 10 {
		t.Errorf("n=%d failed=%d", s.n, s.failed)
	}
}

func TestSummarizeBacklogAndReloads(t *testing.T) {
	t0 := time.Unix(0, 0)
	outs := make([]outcome, 8)
	for i := range outs {
		outs[i] = outcome{kind: reqProfile, due: t0, sent: t0, done: t0.Add(time.Millisecond), ok: true, backlog: i}
	}
	outs[2] = outcome{kind: reqReload, due: t0, sent: t0.Add(time.Millisecond), done: t0.Add(301 * time.Millisecond), ok: true, backlog: 2}
	outs[5].ok = false
	s := summarize(outs, 2, 8)
	if s.backlogMax != 7 || !s.growing {
		t.Errorf("backlogMax %d growing %v; want 7, true (mean backlog 0.5 → 6.5 over 2 connections)", s.backlogMax, s.growing)
	}
	if len(s.latMs) != 7 {
		t.Errorf("%d reads, want 7: a reload is not a read", len(s.latMs))
	}
	if s.failed != 1 {
		t.Errorf("failed %d, want 1", s.failed)
	}
	flat := summarize(outs[:4], 8, 4)
	if flat.growing {
		t.Error("a backlog within the connection count is not growing")
	}
}

func TestWindowedP99IgnoresAStallInOneWindow(t *testing.T) {
	t0 := time.Unix(0, 0)
	outs := make([]outcome, 10000)
	for i := range outs {
		lat := time.Millisecond
		if i >= 3000 && i < 3200 { // a 200-request stall, all in window 3
			lat = 60 * time.Millisecond
		}
		outs[i] = outcome{kind: reqProfile, due: t0, sent: t0, done: t0.Add(lat), ok: true}
	}
	s := summarize(outs, 2, 1000)
	if got := s.p(99); got != 60 {
		t.Errorf("whole-segment p99 %v ms, want 60: 200 stalled of 10000 is over 1%%", got)
	}
	if len(s.windowP99) != 10 || s.windowP99[3] != 60 || !s.windowsSupported {
		t.Errorf("window p99s %v supported %v; want ten windows, window 3 at 60 ms", s.windowP99, s.windowsSupported)
	}
	if got := s.tailMs(); got != 1 {
		t.Errorf("windowed p99 %v ms, want 1: one stalled window of ten must not set it", got)
	}
	if short := summarize(outs[:500], 2, 1000); len(short.windowP99) != 1 || short.windowsSupported {
		t.Errorf("500 reads: %d windows, supported %v; want one window, unsupported (5 beyond its p99)", len(short.windowP99), short.windowsSupported)
	}
}

func TestLadderRetriesAFailedStepOnce(t *testing.T) {
	rates := []float64{2000, 3000, 4000, 5000, 6000, 7000, 8000}
	// 6000 fails its first try (a stall), then passes; 7000 and up fail.
	tries := map[float64]int{}
	run := func(rate float64) ladderStep {
		tries[rate]++
		st := ladderStep{rate: rate, p99Ms: 1}
		if rate >= 7000 || (rate == 6000 && tries[rate] == 1) {
			st.p99Ms = 9
		}
		return st
	}
	got, steps := ladder(rates, 5, run)
	if got != 6000 {
		t.Errorf("max rate %v, want 6000", got)
	}
	if tries[6000] != 2 {
		t.Errorf("6000 tried %d times, want 2 (retried once)", tries[6000])
	}
	for _, r := range []float64{7000, 8000} {
		if n := tries[r]; n != 0 && n != 2 {
			t.Errorf("failing rate %v tried %d times, want 2", r, n)
		}
	}
	if len(steps) == 0 || len(steps) > 2*4 {
		t.Errorf("%d steps for 7 rates; bisection needs at most 3 probes of 2 tries", len(steps))
	}

	if got, _ := ladder(rates, 5, func(rate float64) ladderStep { return ladderStep{p99Ms: 9} }); got != 0 {
		t.Errorf("nothing passes: max rate %v, want 0", got)
	}
	bad := ladderStep{p99Ms: 1, failed: 1}
	if bad.pass(5) || (ladderStep{p99Ms: 1, grow: true}).pass(5) {
		t.Error("a step with failures or a growing backlog must not pass")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "rep", ID: 1, Start: 0, End: 100},
		{Name: "iter[1]", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "iter[2]", ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps iter[1]
	}
	rows := selfTimes(spans)
	got := map[string]selfRow{}
	for _, r := range rows {
		got[r.name] = r
	}
	if r := got["rep"]; math.Abs(r.selfS-50e-9) > 1e-18 {
		t.Errorf("rep self %v s, want 50 ns (children cover 10..60)", r.selfS)
	}
	if r := got["iter[*]"]; r.count != 2 || math.Abs(r.totalS-60e-9) > 1e-18 {
		t.Errorf("iter[*] row %+v, want 2 spans, 60 ns", r)
	}
}

// TestQuickSmoke runs all four workloads on tiny worlds, untraced and
// traced, and checks that every check passes and that every metric
// BENCHMARK.json names is reported.
func TestQuickSmoke(t *testing.T) {
	buf, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Skipf("no %s next to the benchmark: %v", benchmarkJSON, err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "mlpserve")
	if out, err := exec.Command("go", "build", "-o", bin, "mlprofile/cmd/mlpserve").CombinedOutput(); err != nil {
		t.Fatalf("building mlpserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			wl, err := findWorkload(w.name, true)
			if err != nil {
				t.Fatal(err)
			}
			work := t.TempDir()
			rc := runConfig{seed: 3, seconds: 1, trace: traced, quick: true, mlpserve: bin, work: work, out: work, log: io.Discard}
			rep, failures, err := runWorkload(wl, rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, rep.Correct, rep.Attempted, rep.Failed, failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

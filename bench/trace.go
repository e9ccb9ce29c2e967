package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"sync"
	"time"
)

// Spans are recorded in memory, only in the traced run, around the
// benchmark's own calls into each layer (ingest, fit and its iterations,
// readout, snapshot, the daemon, each request); nothing inside the
// program is instrumented. They are written at exit as Chrome
// trace-event JSON and summarized as a self-time table.

type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root span
	Pid    int    `json:"pid"`              // 1: the fit process, 2: the load generator
	Tid    int    `json:"tid"`
	Start  int64  `json:"start"` // Unix ns
	End    int64  `json:"end"`
	// LateNs is a request's send time minus its due time; the span
	// itself runs from due time to completion.
	LateNs int64 `json:"late_ns,omitempty"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	pid   int
	mu    sync.Mutex
	spans []span
}

func newTracer(pid int) *tracer { return &tracer{pid: pid} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, tid int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Pid: t.pid, Tid: tid,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent, tid int) int {
	now := time.Now()
	return t.add(name, parent, tid, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// requests records one span per request of a segment, from due time to
// completion, on the thread of the connection that sent it.
func (t *tracer) requests(parent int, outs []outcome) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range outs {
		t.spans = append(t.spans, span{Name: o.kind.String(), ID: len(t.spans) + 1, Parent: parent, Pid: t.pid,
			Tid: 1 + o.conn, Start: o.due.UnixNano(), End: o.done.UnixNano(), LateNs: int64(o.sent.Sub(o.due))})
	}
}

// merge appends another tracer's spans, renumbering their ids.
func (t *tracer) merge(spans []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	off := len(t.spans)
	for _, s := range spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeChrome writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev).
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A bufio.Writer keeps its first write error and returns it from
	// Flush, so only the encoder and Flush need checking.
	w := bufio.NewWriter(f)
	w.WriteString("{\"traceEvents\":[\n")
	enc := json.NewEncoder(w)
	for i, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.LateNs != 0 {
			args["late_us"] = float64(s.LateNs) / 1e3
		}
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(event{Name: s.Name, Ph: "X", Ts: float64(s.Start-t0) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: s.Pid, Tid: s.Tid, Args: args}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name          string
	count         int
	totalS, selfS float64
}

// numbered folds the per-instance part of a span name ("iter[7]",
// "ladder 9000") so the table has one row per kind of span.
var numbered = regexp.MustCompile(`\[\d+\]|\s\d+$`)

// selfTimes computes, per span name, the total duration and the self
// time: duration minus the part of the span its children cover.
func selfTimes(spans []span) []selfRow {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*selfRow{}
	var order []string
	for _, s := range spans {
		name := numbered.ReplaceAllString(s.Name, "[*]")
		r := rows[name]
		if r == nil {
			r = &selfRow{name: name}
			rows[name] = r
			order = append(order, name)
		}
		dur := s.End - s.Start
		r.count++
		r.totalS += float64(dur) / 1e9
		r.selfS += float64(dur-covered(s.Start, s.End, kids[s.ID])) / 1e9
	}
	out := make([]selfRow, 0, len(order))
	for _, name := range order {
		out = append(out, *rows[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].selfS > out[j].selfS })
	return out
}

// covered returns how much of [start, end) the union of intervals covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], end)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func printSelfTimes(w io.Writer, workload string, rows []selfRow) {
	fmt.Fprintf(w, "# %s self time (traced run)\n", workload)
	fmt.Fprintf(w, "# %-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "# %-28s %8d %12.4f %12.4f\n", r.name, r.count, r.totalS, r.selfS)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// results is the document out/results.json holds: the machine, the
// settings and every run.
type results struct {
	Generated  string      `json:"generated"`
	Nproc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	CPU        string      `json:"cpu"`
	Commit     string      `json:"commit"`
	Seed       int64       `json:"seed"`
	Runs       int         `json:"runs"`
	Seconds    float64     `json:"seconds"`
	Quick      bool        `json:"quick,omitempty"`
	Records    []runRecord `json:"records"`
}

// runRecord is one workload run.
type runRecord struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	DurationS float64 `json:"duration_s"`
	report
}

func newResults(rc runConfig, runs int) *results {
	return &results{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
		Seed:       rc.seed,
		Runs:       runs,
		Seconds:    rc.seconds,
		Quick:      rc.quick,
	}
}

func (r *results) write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out revision, with "-dirty" when the tree differs
// from it, or "unknown" outside a git tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles compares two results files metric by metric under the
// bounds of BENCHMARK.json, one row per workload and metric: each side's
// median and quartiles over its untraced runs, the change as a share of
// A's median, and a verdict. A metric whose quartile spread on either
// side is wider than its bound is unresolved, unless every run of B reads
// better than every run of A.
func compareFiles(w io.Writer, pathA, pathB, specPath string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	buf, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	for _, warn := range envWarnings(a, b) {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
	fmt.Fprintf(w, "%-12s %-14s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "verdict")
	for _, wl := range workloadNames(a, b) {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl, m.Name), b.values(wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-14s missing on one side\n", wl, m.Name)
				continue
			}
			v := judge(va, vb, m.Better == "higher", m.Bound)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-12s %-14s %12.5g %25s %12.5g %25s %+7.1f%%  %s\n", wl, m.Name,
				median(va), fmt.Sprintf("[%.5g, %.5g]", a1, a3), median(vb), fmt.Sprintf("[%.5g, %.5g]", b1, b3),
				100*v.change, v.verdict)
		}
		fa, fb := a.failRatio(wl), b.failRatio(wl)
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION (more failures)"
		}
		fmt.Fprintf(w, "%-12s %-14s %12.5g %25s %12.5g %25s %8s  %s\n", wl, "fail_ratio", fa, "", fb, "", "", verdict)
	}
	return nil
}

type verdict struct {
	change  float64 // (B − A) / |A| of the medians
	verdict string
}

// judge applies one metric's bound to the runs of both sides.
func judge(va, vb []float64, higherBetter bool, bound float64) verdict {
	ma, mb := median(va), median(vb)
	v := verdict{change: (mb - ma) / math.Abs(ma)}
	worse := v.change
	if higherBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range va {
		for _, y := range vb {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		v.verdict = "better (every run)"
	case spread(va) > bound || spread(vb) > bound:
		v.verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% > bound %.0f%%)", 100*spread(va), 100*spread(vb), 100*bound)
	case worse > bound:
		v.verdict = fmt.Sprintf("REGRESSION (worse by more than %.0f%%)", 100*bound)
	default:
		v.verdict = "ok"
	}
	return v
}

// values returns a metric's values over a workload's untraced runs.
func (r *results) values(workload, metric string) []float64 {
	var out []float64
	for _, rec := range r.Records {
		if rec.Workload != workload || rec.Traced {
			continue
		}
		if m, ok := rec.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func (r *results) failRatio(workload string) float64 {
	var att, failed int
	for _, rec := range r.Records {
		if rec.Workload == workload {
			att += rec.Attempted
			failed += rec.Failed
		}
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

func (r *results) seeds() []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, rec := range r.Records {
		if !seen[rec.Seed] {
			seen[rec.Seed] = true
			out = append(out, rec.Seed)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// envWarnings lists the settings that differ between two results files.
func envWarnings(a, b *results) []string {
	var out []string
	if a.Nproc != b.Nproc {
		out = append(out, fmt.Sprintf("nproc differs: %d vs %d", a.Nproc, b.Nproc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		out = append(out, fmt.Sprintf("GOMAXPROCS differs: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if sa, sb := fmt.Sprint(a.seeds()), fmt.Sprint(b.seeds()); sa != sb {
		out = append(out, fmt.Sprintf("seeds differ: %s vs %s", sa, sb))
	}
	return out
}

// workloadNames lists the workloads either file has runs of, in the
// benchmark's order.
func workloadNames(a, b *results) []string {
	var out []string
	for _, w := range workloads {
		if len(a.values(w.name, "setup_s")) > 0 || len(b.values(w.name, "setup_s")) > 0 {
			out = append(out, w.name)
		}
	}
	return out
}

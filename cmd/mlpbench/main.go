// Command mlpbench runs the sampler benchmark matrix — both edge
// kernels on the sequential chain, plus the shard axis — on a
// synthetic world and writes the results as JSON, so the performance
// trajectory is tracked as a checked-in artifact from PR to PR instead
// of scrollback.
//
// Every cell also records a per-phase breakdown (edge / tweet / fold /
// shard / boundary / em seconds per sweep, from Model.PhaseSeconds; the
// once-per-fit init/ phases are left out), and the
// measured fits run under pprof phase labels, so a -cpuprofile capture
// attributes samples to sweep phases by name.
//
// Usage:
//
//	mlpbench                                  # bench world, BENCH_sampler.json
//	mlpbench -users 2000 -sweeps 10 -out BENCH_big.json
//	mlpbench -count 5                         # median of 5 timings per cell
//	mlpbench -compare BENCH_sampler.json      # also print deltas vs a prior run
//	mlpbench -trend a.json b.json c.json      # per-cell trajectory across runs
//	mlpbench -cpuprofile cpu.prof             # profile the measured fits
//
// Each matrix cell is measured as two fits — one initialization-only and
// one with -sweeps Gibbs iterations — so the reported per-sweep time
// excludes the world-dependent setup (candidate construction, distance
// table build, power-law init). With -count > 1 the cell is measured
// that many times and the median per-sweep time is reported, which is
// what CI uses to keep the delta report from flapping on noisy runners.
//
// -compare loads a previously written report and prints the per-config
// sweep-time deltas (matched by cell name; cells present on only one
// side are flagged), warning when the two runs saw different core
// counts. It never fails the run — the CI leg that invokes it is
// informational, keeping the perf trajectory visible on every PR
// without making noisy runners a gate.
//
// -trend skips benchmarking entirely: it loads the report files given as
// positional arguments, orders them by generation time, and prints each
// cell's sweep-time trajectory across all of them — the multi-run view
// -compare's pairwise diff cannot give.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// Result is one benchmark matrix cell.
type Result struct {
	Name         string             `json:"name"`
	Kernel       string             `json:"kernel"`
	Shards       int                `json:"shards,omitempty"`
	InitSeconds  float64            `json:"init_seconds"`
	SweepSeconds float64            `json:"sweep_seconds"`
	RelsPerSec   float64            `json:"rels_per_sec"`
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Users      int      `json:"users"`
	Locations  int      `json:"locations"`
	Edges      int      `json:"edges"`
	Tweets     int      `json:"tweets"`
	Sweeps     int      `json:"sweeps"`
	Count      int      `json:"count,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mlpbench: ")

	var (
		users      = flag.Int("users", 700, "world size in users")
		locations  = flag.Int("locations", 200, "gazetteer size")
		seed       = flag.Int64("seed", 5, "world + sampler seed")
		sweeps     = flag.Int("sweeps", 5, "measured Gibbs sweeps per cell")
		count      = flag.Int("count", 1, "timings per cell; the median is reported")
		out        = flag.String("out", "BENCH_sampler.json", "output JSON path")
		compare    = flag.String("compare", "", "prior report JSON to diff the fresh run against")
		trend      = flag.Bool("trend", false, "print per-cell trajectories across the report files given as arguments (no benchmarking)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measured fits")
		memprofile = flag.String("memprofile", "", "write a heap profile after the run")
	)
	flag.Parse()

	if *trend {
		if flag.NArg() < 2 {
			log.Fatal("-trend needs at least two report files")
		}
		if err := printTrend(flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *count < 1 {
		*count = 1
	}

	d, err := synth.Generate(synth.Config{Seed: *seed, NumUsers: *users, NumLocations: *locations})
	if err != nil {
		log.Fatal(err)
	}
	test := dataset.KFold(len(d.Corpus.Users), 5, 99)[0]
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(test))
	rels := len(c.Edges) + len(c.Tweets)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Printf("mlpbench: closing cpu profile %s: %v", *cpuprofile, err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpuProfiling = true
		defer pprof.StopCPUProfile()
	}

	rep := Report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Users:      *users,
		Locations:  *locations,
		Edges:      len(c.Edges),
		Tweets:     len(c.Tweets),
		Sweeps:     *sweeps,
		Count:      *count,
	}

	for _, kernel := range []struct {
		name    string
		blocked bool
	}{{"pervar", false}, {"blocked", true}} {
		cfg := core.Config{Seed: *seed, NoiseBurnIn: 1, BlockedSampler: kernel.blocked}
		initS, perSweep, phases := measureCell(c, cfg, *sweeps, *count)
		r := Result{
			// The "dist=table" and "/workers=1" parts name these cells as
			// the retired distance-mode and worker axes did, so -compare
			// and -trend still match them against older reports.
			Name:         fmt.Sprintf("kernel=%s/dist=table/workers=1", kernel.name),
			Kernel:       kernel.name,
			InitSeconds:  initS,
			SweepSeconds: perSweep,
			RelsPerSec:   float64(rels) / perSweep,
			PhaseSeconds: phases,
		}
		rep.Results = append(rep.Results, r)
		logCell(&r)
	}

	// Shard axis: the sharded pipeline across shard counts. Shards=1 is
	// by construction the sequential chain already measured above, so
	// the axis starts at 2.
	for _, shards := range []int{2, 4} {
		cfg := core.Config{Seed: *seed, NoiseBurnIn: 1, Shards: shards}
		initS, perSweep, phases := measureCell(c, cfg, *sweeps, *count)
		r := Result{
			Name:         fmt.Sprintf("kernel=pervar/dist=table/shards=%d", shards),
			Kernel:       "pervar",
			Shards:       shards,
			InitSeconds:  initS,
			SweepSeconds: perSweep,
			RelsPerSec:   float64(rels) / perSweep,
			PhaseSeconds: phases,
		}
		rep.Results = append(rep.Results, r)
		logCell(&r)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	log.Printf("wrote %s", *out)

	if *compare != "" {
		compareReports(*compare, &rep)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Printf("mlpbench: closing mem profile %s: %v", *memprofile, err)
			}
		}()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// cpuProfiling records that a CPU profile is in flight, so fatal exits
// can flush it: log.Fatal os.Exits past the deferred StopCPUProfile,
// which would otherwise leave a truncated, unusable profile.
var cpuProfiling bool

func fatal(v ...any) {
	if cpuProfiling {
		pprof.StopCPUProfile()
	}
	log.Fatal(v...)
}

// measureCell times one config as two fits — one initialization-only and
// one with sweeps Gibbs iterations — repeated count times. Each
// measurement is the (tN - t1)/sweeps pair, so per-run init jitter
// cancels inside the pair, and the median discards the cross-run
// outliers noisy runners produce. The per-phase breakdown comes from the
// same pair: (phaseN - phase1)/sweeps per phase name, median per key.
func measureCell(c *dataset.Corpus, cfg core.Config, sweeps, count int) (initS, perSweep float64, phases map[string]float64) {
	timeFit := func(iters int) (float64, map[string]float64) {
		cfg.Iterations = iters
		start := time.Now()
		m, err := core.Fit(c, cfg)
		if err != nil {
			fatal(err)
		}
		return time.Since(start).Seconds(), m.PhaseSeconds()
	}
	inits := make([]float64, 0, count)
	perSweeps := make([]float64, 0, count)
	phaseRuns := map[string][]float64{}
	for r := 0; r < count; r++ {
		t1, p1 := timeFit(1)
		tN, pN := timeFit(1 + sweeps)
		ps := (tN - t1) / float64(sweeps)
		if ps <= 0 {
			ps = t1 // degenerate tiny worlds; fall back to the full fit
		}
		inits = append(inits, t1)
		perSweeps = append(perSweeps, ps)
		for k, v := range pN {
			if strings.HasPrefix(k, "init/") {
				continue // paid once per fit: the subtraction cancels it
			}
			d := (v - p1[k]) / float64(sweeps)
			if d < 0 {
				d = 0
			}
			phaseRuns[k] = append(phaseRuns[k], d)
		}
	}
	phases = make(map[string]float64, len(phaseRuns))
	for k, vs := range phaseRuns {
		phases[k] = median(vs)
	}
	return median(inits), median(perSweeps), phases
}

// logCell prints one measured cell, with the per-phase split appended in
// a stable order.
func logCell(r *Result) {
	keys := make([]string, 0, len(r.PhaseSeconds))
	for k := range r.PhaseSeconds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	detail := ""
	for _, k := range keys {
		detail += fmt.Sprintf(" %s %.2fms", k, r.PhaseSeconds[k]*1e3)
	}
	if detail != "" {
		detail = "  [" + detail[1:] + "]"
	}
	log.Printf("%-40s sweep %8.2fms  %10.0f rels/s%s", r.Name, r.SweepSeconds*1e3, r.RelsPerSec, detail)
}

// median returns the middle value (lower middle for even counts) without
// disturbing the input order.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// loadReport reads one mlpbench JSON document.
func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports diffs the fresh run against a prior report, matching
// cells by name. Informational only: deltas on shared cells, plus cells
// that exist on one side only (the matrix grows as knobs are added, so a
// one-sided cell is expected right after a new dimension lands).
func compareReports(path string, fresh *Report) {
	old, err := loadReport(path)
	if err != nil {
		log.Printf("compare: %v (skipping diff)", err)
		return
	}
	// SweepSeconds is per-sweep normalized, so a different -sweeps count
	// is directly comparable; only a different world invalidates deltas.
	// The seed isn't serialized, but the realized edge/tweet counts pin
	// the world as tightly for comparison purposes.
	if old.Users != fresh.Users || old.Locations != fresh.Locations ||
		old.Edges != fresh.Edges || old.Tweets != fresh.Tweets {
		log.Printf("compare: world differs (old %du/%dl/%de/%dt vs new %du/%dl/%de/%dt) — deltas are indicative only",
			old.Users, old.Locations, old.Edges, old.Tweets,
			fresh.Users, fresh.Locations, fresh.Edges, fresh.Tweets)
	}
	// Shards cells measure speedup only when the cores are there; a run
	// on a different core count (or one from before nproc was recorded,
	// read as 0) is not comparable cell for cell.
	if old.NProc != fresh.NProc || old.GOMAXPROCS != fresh.GOMAXPROCS {
		log.Printf("compare: cores differ (old nproc=%d gomaxprocs=%d vs new nproc=%d gomaxprocs=%d) — deltas are indicative only",
			old.NProc, old.GOMAXPROCS, fresh.NProc, fresh.GOMAXPROCS)
	}
	oldByName := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldByName[r.Name] = r
	}
	log.Printf("compare vs %s (generated %s, %s):", path, old.Generated, old.GoVersion)
	for _, r := range fresh.Results {
		o, ok := oldByName[r.Name]
		if !ok {
			log.Printf("  %-40s %8.2fms  (new cell)", r.Name, r.SweepSeconds*1e3)
			continue
		}
		delete(oldByName, r.Name)
		log.Printf("  %-40s %8.2fms -> %8.2fms  (%+.1f%%, %0.2fx)",
			r.Name, o.SweepSeconds*1e3, r.SweepSeconds*1e3,
			100*(r.SweepSeconds-o.SweepSeconds)/o.SweepSeconds,
			o.SweepSeconds/r.SweepSeconds)
	}
	for name, o := range oldByName {
		log.Printf("  %-40s %8.2fms  (cell gone from matrix)", name, o.SweepSeconds*1e3)
	}
}

// printTrend loads the given reports and prints every cell's sweep-time
// trajectory across all of them, oldest run first.
func printTrend(paths []string) error {
	type run struct {
		path string
		*Report
	}
	reps := make([]run, 0, len(paths))
	for _, p := range paths {
		r, err := loadReport(p)
		if err != nil {
			return err
		}
		reps = append(reps, run{p, r})
	}
	// Whatever the argument order (a shell glob sorts by file name), the
	// RFC 3339 UTC stamps sort chronologically as strings.
	sort.SliceStable(reps, func(i, j int) bool { return reps[i].Generated < reps[j].Generated })
	// Cells in first-appearance order across the run sequence, so cells
	// added by a new matrix axis list after the long-lived ones.
	var order []string
	seen := map[string]bool{}
	for _, r := range reps {
		for _, c := range r.Results {
			if !seen[c.Name] {
				seen[c.Name] = true
				order = append(order, c.Name)
			}
		}
	}
	log.Printf("trend across %d runs:", len(reps))
	for i, r := range reps {
		log.Printf("  run %d: %s (generated %s, %s, nproc=%d gomaxprocs=%d)", i+1, r.path, r.Generated, r.GoVersion, r.NProc, r.GOMAXPROCS)
	}
	for _, name := range order {
		line := fmt.Sprintf("  %-60s", name)
		var first, last float64
		haveFirst := false
		for _, r := range reps {
			found := false
			for _, c := range r.Results {
				if c.Name == name {
					line += fmt.Sprintf(" %8.2fms", c.SweepSeconds*1e3)
					if !haveFirst {
						first, haveFirst = c.SweepSeconds, true
					}
					last = c.SweepSeconds
					found = true
					break
				}
			}
			if !found {
				line += fmt.Sprintf(" %9s", "-")
			}
		}
		if haveFirst && last > 0 {
			line += fmt.Sprintf("  (%0.2fx first→last)", first/last)
		}
		log.Print(line)
	}
	return nil
}

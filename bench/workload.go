package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// workload is one world plus how a run's seconds are spent on it. Every
// workload runs the same pipeline: the fit phase (mlptrain's path, in a
// child process) and the serve phase (the mlpserve daemon on the fitted
// snapshot, under open-loop traffic). What differs is the world and how
// the run is split between the phases, so each stresses different layers.
type workload struct {
	name          string
	users, cities int
	// serveOnly workloads fit once, unmeasured, only to produce the
	// snapshot they serve; the others spend most of the run on fit reps.
	serveOnly bool
	// coldStarts is how many times the daemon is started; setup_s of a
	// serve workload is their median.
	coldStarts int
	// floor is the lowest acceptable held-out ACC@100.
	floor float64
}

// workloads are the benchmark's worlds; BENCHMARK.json and README.md say
// why each was chosen.
var workloads = []workload{
	{name: "fit-small", users: 700, cities: 200, coldStarts: 1, floor: 0.85},
	{name: "fit-large", users: 5000, cities: 1000, coldStarts: 1, floor: 0.90},
	{name: "fit-widegaz", users: 1500, cities: 4096, coldStarts: 1, floor: 0.80},
	{name: "serve-mixed", users: 10000, cities: 1000, serveOnly: true, coldStarts: 3, floor: 0.90},
}

// quickSizes shrinks every world for the smoke test and -quick runs.
var quickSizes = map[string][2]int{
	"fit-small":   {200, 50},
	"fit-large":   {400, 100},
	"fit-widegaz": {300, 2100},
	"serve-mixed": {500, 100},
}

func findWorkload(name string, quick bool) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			if quick {
				sz := quickSizes[name]
				w.users, w.cities = sz[0], sz[1]
				w.floor = 0.5
			}
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	mlpserve string
	work     string    // scratch directory, removed by the caller
	out      string    // results directory
	log      io.Writer // receives the traced run's self-time table
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one workload run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// schedule splits a run's seconds. The untraced run measures only what
// the end-to-end metrics need: fit workloads split their run between
// fit reps and 2k req/s; serve-mixed between 2k req/s and 2k req/s with
// reloads. A segment of 10 s gives the windowed p99 ten one-second
// windows. The traced run and -quick run every segment. Every serve phase
// starts with a one-second warm-up on top.
func (w workload) schedule(rc runConfig) (fitS float64, sp servePlan) {
	t := rc.seconds
	switch {
	case rc.quick:
		fitS, sp.r2kS, sp.r6kS, sp.reloadS, sp.ladderS = 0, 0.5, 0.5, 0.5, 0.5
	case rc.trace && w.serveOnly:
		sp.r2kS, sp.r6kS, sp.reloadS, sp.ladderS = t/4, t/4, t/4, t/4
	case rc.trace:
		fitS = t / 2
		sp.r2kS, sp.r6kS, sp.reloadS, sp.ladderS = t/8, t/8, t/8, t/8
	case w.serveOnly:
		sp.r2kS, sp.reloadS = t/2, t/2
	default:
		fitS, sp.r2kS = t/2, t/2
	}
	sp.warmS = 1
	if rc.quick {
		sp.warmS = 0.2
	}
	sp.coldStarts = w.coldStarts
	return fitS, sp
}

// runWorkload generates w's world from the seed and runs both phases.
func runWorkload(w workload, rc runConfig) (*report, []string, error) {
	nFolds := 5
	if w.serveOnly || rc.quick {
		nFolds = 1
	}
	truthPath := filepath.Join(rc.work, "truth.json")
	dirs, sh, err := writeWorld(w, rc.seed, rc.work, nFolds, truthPath)
	if err != nil {
		return nil, nil, err
	}
	corpusSize, err := corpusMB(dirs[0])
	if err != nil {
		return nil, nil, err
	}

	fitS, sp := w.schedule(rc)
	// At least one rep per fold, so quality always pools the same folds
	// however fast the machine is.
	plan := fitPlan{Dirs: dirs, Truth: truthPath, Snap: filepath.Join(rc.work, "model.mlp"), Seed: rc.seed,
		Seconds: fitS, MinReps: len(dirs), MaxReps: 1 << 20, Trace: rc.trace, Floor: w.floor}
	if w.serveOnly || rc.quick {
		plan.MinReps, plan.MaxReps = 1, 1
	}
	if rc.trace && plan.MaxReps < 2 {
		// Trace every other rep: the untraced one measures the overhead.
		plan.MinReps, plan.MaxReps = 2, 2
	}
	fit, err := runFitPhase(plan)
	if err != nil {
		return nil, nil, err
	}

	var tr *tracer
	if rc.trace {
		tr = newTracer(2)
	}
	sp.bin, sp.snapshot, sp.data, sp.sh, sp.seed = rc.mlpserve, plan.Snap, fit.LastDir, sh, rc.seed
	// The generator shares this process with the world generator's
	// garbage; return it before the generator's timing starts.
	debug.FreeOSMemory()
	srv, err := runServe(sp, tr)
	if err != nil {
		return nil, nil, err
	}

	var ck checks
	ck.merge(fit.Checks)
	ck.merge(srv.checks)
	failedReqs, attempted := srv.warmFailed, len(fit.Reps)+srv.warmN
	for _, seg := range []segmentStats{srv.r2k, srv.r6k, srv.reload} {
		failedReqs += seg.failed
		attempted += seg.n
	}
	for _, st := range srv.ladderSteps {
		failedReqs += st.failed
		attempted += st.n
	}

	m := map[string]metric{}
	if rc.trace {
		tr.merge(fit.Spans)
		traceChecks(tr.all(), &ck)
		layerMetrics(m, fit, srv, corpusSize)
		if err := os.MkdirAll(rc.out, 0o755); err != nil {
			return nil, nil, err
		}
		path := filepath.Join(rc.out, "trace-"+w.name+".json")
		if err := writeChrome(path, tr.all()); err != nil {
			return nil, nil, fmt.Errorf("writing %s: %w", path, err)
		}
		printSelfTimes(rc.log, w.name, selfTimes(tr.all()))
	} else {
		endToEndMetrics(m, w, fit, srv)
	}
	attempted += ck.N
	rep := &report{
		Attempted: attempted,
		Failed:    failedReqs + len(ck.Failed),
		Metrics:   m,
	}
	rep.Correct = rep.Failed == 0
	return rep, ck.Failed, nil
}

// writeWorld generates the world and writes one corpus directory per
// fold under work, each with that fold's labels hidden, plus the ground
// truth.
func writeWorld(w workload, seed int64, work string, nFolds int, truthPath string) ([]string, shape, error) {
	d, err := synth.Generate(synth.Config{Seed: seed, NumUsers: w.users, NumLocations: w.cities})
	if err != nil {
		return nil, shape{}, err
	}
	var dirs []string
	for f, test := range folds(len(d.Corpus.Users))[:nFolds] {
		dir := filepath.Join(work, fmt.Sprintf("corpus-%d", f))
		c := d.Corpus.WithUsers(d.Corpus.HideLabels(test))
		if err := (&dataset.Dataset{Corpus: *c}).Save(dir); err != nil {
			return nil, shape{}, err
		}
		dirs = append(dirs, dir)
	}
	buf, err := json.Marshal(d.Truth)
	if err != nil {
		return nil, shape{}, err
	}
	if err := os.WriteFile(truthPath, buf, 0o644); err != nil {
		return nil, shape{}, err
	}
	c := d.Corpus
	return dirs, shape{users: len(c.Users), edges: len(c.Edges), cities: c.Gaz.Len(), venues: c.Venues.Len()}, nil
}

// endToEndMetrics fills the untraced run's metrics. Each is defined for
// every workload; README.md gives the per-workload meaning.
func endToEndMetrics(m map[string]metric, w workload, fit *fitResult, srv *serveResult) {
	reps := fit.Reps
	if w.serveOnly {
		m["setup_s"] = metric{median(srv.setupS), "s"}
		m["build_s"] = metric{median(srv.reloadS), "s"}
		m["peak_rss_mb"] = metric{srv.rssMB, "MB"}
	} else {
		m["setup_s"] = metric{median(pick(reps, func(r repResult) float64 { return r.IngestS })), "s"}
		m["build_s"] = metric{median(pick(reps, func(r repResult) float64 { return r.FitS })), "s"}
		m["peak_rss_mb"] = metric{fit.RSSMB, "MB"}
	}
	m["p50_ms"] = metric{srv.r2k.p(50), "ms"}
	m["p99_ms"] = metric{srv.r2k.tailMs(), "ms"}
	m["acc100"] = metric{fit.Acc100, "frac"}
	m["dr3"] = metric{fit.DR3, "frac"}
	m["rel_acc100"] = metric{fit.RelAcc100, "frac"}
}

// layerMetrics fills the traced run's per-layer metrics.
func layerMetrics(m map[string]metric, fit *fitResult, srv *serveResult, corpusSize float64) {
	reps := fit.Reps
	med := func(f func(r repResult) float64) float64 { return median(pick(reps, f)) }
	ingest := med(func(r repResult) float64 { return r.IngestS })
	m["dataset.ingest_s"] = metric{ingest, "s"}
	m["dataset.ingest_mb_per_s"] = metric{corpusSize / ingest, "MB/s"}
	m["dataset.ingest_alloc_mb"] = metric{med(func(r repResult) float64 { return r.IngestAllocMB }), "MB"}

	var first, early, em, sweep, tracedFit, untracedFit []float64
	for _, r := range reps {
		if !r.Traced {
			untracedFit = append(untracedFit, r.FitS)
			continue
		}
		tracedFit = append(tracedFit, r.FitS)
		for i, s := range r.IterS {
			switch k := i + 1; {
			case k == 1:
				first = append(first, s)
			case k%5 == 0: // the default EMInterval: these sweeps end with a refit
				em = append(em, s*1e3)
			case k <= 4:
				early = append(early, s*1e3)
			case k >= 6:
				sweep = append(sweep, s*1e3)
			}
		}
	}
	m["core.first_iter_s"] = metric{median(first), "s"}
	m["core.early_sweep_ms"] = metric{median(early), "ms"}
	m["core.sweep_ms"] = metric{median(sweep), "ms"}
	m["core.em_ms"] = metric{median(em) - median(sweep), "ms"}
	m["core.fit_alloc_mb"] = metric{med(func(r repResult) float64 { return r.FitAllocMB }), "MB"}
	m["core.gc_cycles"] = metric{med(func(r repResult) float64 { return float64(r.GCCycles) }), "count"}
	m["core.topk_us"] = metric{med(func(r repResult) float64 { return r.ReadoutS }) / float64(fit.Users) * 1e6, "us"}
	m["core.encode_s"] = metric{med(func(r repResult) float64 { return r.EncodeS }), "s"}
	m["core.snapshot_mb"] = metric{med(func(r repResult) float64 { return r.SnapshotMB }), "MB"}
	m["core.decode_s"] = metric{med(func(r repResult) float64 { return r.DecodeS }), "s"}
	m["core.explain_us"] = metric{fit.ExplainUs, "us"}
	m["core.pipeline_s"] = metric{med(func(r repResult) float64 { return r.PipelineS }), "s"}

	p99 := func(xs []float64) float64 {
		v, _ := percentile(sortedCopy(xs), 99)
		return v
	}
	m["serve.profile_p99_ms"] = metric{p99(srv.r6k.byKind[reqProfile]), "ms"}
	m["serve.bulk_p99_ms"] = metric{p99(srv.r6k.byKind[reqBulk]), "ms"}
	m["serve.edge_p99_ms"] = metric{p99(srv.r6k.byKind[reqEdge]), "ms"}
	m["serve.venue_p99_ms"] = metric{p99(srv.r6k.byKind[reqVenue]), "ms"}
	m["serve.cache_hit_ratio"] = metric{srv.cacheHit, "frac"}
	m["serve.p99_6k_ms"] = metric{srv.r6k.tailMs(), "ms"}
	m["serve.p99_reload_ms"] = metric{srv.reload.tailMs(), "ms"}
	m["serve.reload_s"] = metric{median(srv.reloadS), "s"}
	m["serve.max_rate_rps"] = metric{srv.maxRate, "req/s"}
	m["serve.start_s"] = metric{median(srv.setupS), "s"}
	m["load.late_p99_ms"] = metric{p99(srv.r6k.lateMs), "ms"}
	m["load.backlog_max"] = metric{float64(max(srv.r2k.backlogMax, srv.r6k.backlogMax, srv.reload.backlogMax)), "count"}
	m["trace.overhead_pct"] = metric{100 * (median(tracedFit) - median(untracedFit)) / median(untracedFit), "%"}
}

func pick(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// traceChecks checks that the layer spans account for the time they
// claim to: within each traced rep, ingest, fit, readout and snapshot
// cover at least 95% of the rep, and the iteration spans sum to the fit
// span within 2%.
func traceChecks(spans []span, ck *checks) {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, rep := range kids[0] {
		if rep.Name != "rep" {
			continue
		}
		var stages int64
		for _, s := range kids[rep.ID] {
			stages += s.End - s.Start
			if s.Name != "core.Fit" {
				continue
			}
			var iters int64
			for _, it := range kids[s.ID] {
				iters += it.End - it.Start
			}
			fitDur := float64(s.End - s.Start)
			ck.add("trace: iter[k] spans sum to the core.Fit span within 2%",
				fitDur > 0 && math.Abs(float64(iters)-fitDur)/fitDur <= 0.02)
		}
		ck.add("trace: ingest, fit, readout and snapshot spans cover >= 95% of the rep",
			float64(stages) >= 0.95*float64(rep.End-rep.Start))
	}
}

// sortedNames returns a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

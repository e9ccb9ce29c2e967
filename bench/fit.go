package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/eval"
	"mlprofile/internal/gazetteer"
)

// The fit phase runs in a child process of its own, so its peak RSS and
// GC state belong to the pipeline alone and not to the world generator.
// Each rep is the mlptrain path with cold caches: ingest the corpus
// directory again (a fresh *Gazetteer, so the distance layer's
// gazetteer-keyed cache starts empty), fit with the defaults, read out
// every user's top 3, write the snapshot.

// fitPlan is the child's input, passed as JSON on its command line.
type fitPlan struct {
	// Dirs holds one corpus directory per cross-validation fold, with that
	// fold's labels hidden; rep r ingests Dirs[r%len(Dirs)], and each
	// fold's model is scored once, on its own held-out users.
	Dirs    []string
	Truth   string  // ground truth JSON
	Snap    string  // snapshot path, rewritten by every rep
	Seed    int64   // sampler seed
	Seconds float64 // start reps until this much time has passed...
	MinReps int     // ...but run at least this many
	MaxReps int     // ...and at most this many
	Trace   bool    // trace every other rep (the rest measure the overhead)
	Floor   float64 // lowest acceptable held-out ACC@100
}

// repResult is one rep's measurements.
type repResult struct {
	Traced                                    bool
	IngestS, FitS, ReadoutS, EncodeS, DecodeS float64
	PipelineS                                 float64
	IterS                                     []float64 // traced reps only
	IngestAllocMB, FitAllocMB, SnapshotMB     float64
	GCCycles                                  uint32
}

// fitResult is the child's output.
type fitResult struct {
	Reps                   []repResult
	RSSMB                  float64
	Acc100, DR3, RelAcc100 float64
	ExplainUs              float64
	LastDir                string // corpus of the snapshot left at Snap
	Users                  int
	Checks                 checks
	Spans                  []span
}

// folds is the cross-validation split of the paper's evaluation: five
// folds, each in turn the held-out users whose labels are hidden.
func folds(users int) [][]dataset.UserID { return dataset.KFold(users, 5, 99) }

// quality pools the evaluations of the folds scored so far.
type quality struct {
	home    eval.HomeEval
	multi   eval.MultiLocEval
	rel     eval.RelEval
	explain time.Duration
}

// runFitChild runs the reps of p and returns what they measured.
func runFitChild(p fitPlan) (*fitResult, error) {
	var tr *tracer
	if p.Trace {
		tr = newTracer(1)
	}
	buf, err := os.ReadFile(p.Truth)
	if err != nil {
		return nil, err
	}
	var truth dataset.GroundTruth
	if err := json.Unmarshal(buf, &truth); err != nil {
		return nil, fmt.Errorf("reading %s: %w", p.Truth, err)
	}
	res := &fitResult{}
	var q quality
	start := time.Now()
	for rep := 0; rep < p.MaxReps && (rep < p.MinReps || time.Since(start).Seconds() < p.Seconds); rep++ {
		traced := p.Trace && rep%2 == 0
		var rt *tracer
		if traced {
			rt = tr
		}
		dir := p.Dirs[rep%len(p.Dirs)]
		r, m, c, tops, err := fitRep(p, dir, rt)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", rep, err)
		}
		r.Traced = traced
		if rep == 0 {
			checkProfiles(m, c, &res.Checks)
		}
		t0 := time.Now()
		m2, err := core.LoadSnapshot(c, p.Snap)
		if err != nil {
			return nil, fmt.Errorf("rep %d: decoding snapshot: %w", rep, err)
		}
		r.DecodeS = time.Since(t0).Seconds()
		rt.add("core.LoadSnapshot", 0, 0, t0, time.Now())
		same := true
		for u := range c.Users {
			same = same && equalCities(tops[u], m2.TopK(dataset.UserID(u), 3))
		}
		res.Checks.add("fit: LoadSnapshot gives the same TopK(u,3) for every user", same)
		if rep < len(p.Dirs) {
			t0 := time.Now()
			q.score(m, c, &truth, folds(len(c.Users))[rep])
			rt.add("eval", 0, 0, t0, time.Now())
		}
		res.Reps = append(res.Reps, *r)
		res.LastDir, res.Users = dir, len(c.Users)
	}
	rss, err := vmHWMMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.RSSMB = rss
	res.Acc100, res.DR3, res.RelAcc100 = q.home.ACC(100), q.multi.DR(), q.rel.ACC(100)
	if n := q.rel.N(); n > 0 {
		res.ExplainUs = float64(q.explain.Nanoseconds()) / 1e3 / float64(n)
	}
	res.Checks.add(fmt.Sprintf("fit: held-out ACC@100 %.3f >= floor %.2f", res.Acc100, p.Floor), res.Acc100 >= p.Floor)
	res.Spans = tr.all()
	return res, nil
}

// fitRep runs one pipeline rep: ingest → Fit → top-3 readout → snapshot.
// It returns the fitted model, its corpus and the readout.
func fitRep(p fitPlan, dir string, tr *tracer) (*repResult, *core.Model, *dataset.Corpus, [][]gazetteer.CityID, error) {
	r := &repResult{}
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	repSpan := tr.begin("rep", 0, 0)
	d, err := dataset.LoadStreamed(dir)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	t1 := time.Now()
	tr.add("dataset.LoadStreamed", repSpan, 0, t0, t1)
	runtime.ReadMemStats(&ms1)

	cfg := core.Config{Seed: p.Seed, GibbsEM: true}
	var fitSpan int
	if tr != nil {
		fitSpan = tr.begin("core.Fit", repSpan, 0)
		prev := time.Now()
		cfg.OnIteration = func(k int, _ *core.Model) {
			now := time.Now()
			r.IterS = append(r.IterS, now.Sub(prev).Seconds())
			tr.add(fmt.Sprintf("iter[%d]", k), fitSpan, 0, prev, now)
			prev = now
		}
	}
	tFit := time.Now()
	m, err := core.Fit(&d.Corpus, cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	t2 := time.Now()
	tr.end(fitSpan)
	runtime.ReadMemStats(&ms2)

	tops := make([][]gazetteer.CityID, len(d.Corpus.Users))
	for u := range tops {
		tops[u] = m.TopK(dataset.UserID(u), 3)
	}
	t3 := time.Now()
	tr.add("core.TopK", repSpan, 0, t2, t3)
	if err := m.SaveSnapshot(p.Snap); err != nil {
		return nil, nil, nil, nil, err
	}
	t4 := time.Now()
	tr.add("core.SaveSnapshot", repSpan, 0, t3, t4)
	tr.end(repSpan)

	fi, err := os.Stat(p.Snap)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	r.IngestS = t1.Sub(t0).Seconds()
	r.FitS = t2.Sub(tFit).Seconds()
	r.ReadoutS = t3.Sub(t2).Seconds()
	r.EncodeS = t4.Sub(t3).Seconds()
	r.PipelineS = t4.Sub(t0).Seconds()
	r.IngestAllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	r.FitAllocMB = float64(ms2.TotalAlloc-ms1.TotalAlloc) / 1e6
	r.GCCycles = ms2.NumGC - ms1.NumGC
	r.SnapshotMB = float64(fi.Size()) / 1e6
	return r, m, &d.Corpus, tops, nil
}

func equalCities(a, b []gazetteer.CityID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkProfiles checks every user's profile is finite and sums to 1.
func checkProfiles(m *core.Model, c *dataset.Corpus, ck *checks) {
	ok := true
	for u := range c.Users {
		var sum float64
		for _, wl := range m.Profile(dataset.UserID(u)) {
			if math.IsNaN(wl.Weight) || math.IsInf(wl.Weight, 0) || wl.Weight < 0 {
				ok = false
			}
			sum += wl.Weight
		}
		ok = ok && math.Abs(sum-1) <= 1e-9
	}
	ck.add("fit: every Profile is finite and sums to 1", ok)
}

// score adds one fold's quality: home ACC@100 over its held-out users
// (Table 2), DR@3 at 100 miles over its held-out multi-location users
// (Table 3), and Fig. 8's relationship ACC@100 of the fold's MAP edge
// explanations.
func (q *quality) score(m *core.Model, c *dataset.Corpus, truth *dataset.GroundTruth, test []dataset.UserID) {
	gaz := c.Gaz
	for _, u := range test {
		top := m.TopK(u, 3)
		if len(top) == 0 {
			q.home.AddMissing()
		} else {
			q.home.Add(gaz.Distance(top[0], truth.Home(u)))
		}
		if locs := truth.TrueCities(u); len(locs) > 1 {
			q.multi.Add(gaz, top, locs, 100)
		}
	}
	for s := range c.Edges {
		if !relEligible(c, truth, s) {
			continue
		}
		t0 := time.Now()
		exp, ok := m.MAPExplainEdge(s)
		q.explain += time.Since(t0)
		et := truth.EdgeTruths[s]
		switch {
		case !ok:
			q.rel.AddMissing()
		case et.Noise && exp.Noisy:
			q.rel.Add(0, 0)
		case et.Noise:
			q.rel.AddMissing()
		default:
			q.rel.Add(gaz.Distance(exp.X, et.X), gaz.Distance(exp.Y, et.Y))
		}
	}
}

// relEligible mirrors the Fig. 8 ground-truth rule of the experiments
// package: edges touching a multi-location user whose true assignments lie
// within 100 miles of each other, plus such users' noise edges, whose
// correct explanation is the noise flag.
func relEligible(c *dataset.Corpus, truth *dataset.GroundTruth, s int) bool {
	e := c.Edges[s]
	if len(truth.Profiles[e.From]) < 2 && len(truth.Profiles[e.To]) < 2 {
		return false
	}
	et := truth.EdgeTruths[s]
	return et.Noise || c.Gaz.Distance(et.X, et.Y) <= 100
}

// runFitPhase runs the fit child for plan and decodes its result.
func runFitPhase(plan fitPlan) (*fitResult, error) {
	arg, err := json.Marshal(plan)
	if err != nil {
		return nil, err
	}
	out, err := runSelf("-child-fit", string(arg))
	if err != nil {
		return nil, err
	}
	var res fitResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("fit child output: %w", err)
	}
	return &res, nil
}

// corpusMB is the on-disk size of a corpus directory in MB.
func corpusMB(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return float64(total) / 1e6, nil
}

package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"mlprofile/internal/basec"
	"mlprofile/internal/baseu"
	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/eval"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/relbase"
	"mlprofile/internal/synth"
)

// Method names in the paper's Table 2 order.
const (
	MethodBaseU = "BaseU"
	MethodBaseC = "BaseC"
	MethodMLPU  = "MLP_U"
	MethodMLPC  = "MLP_C"
	MethodMLP   = "MLP"
)

// Methods lists all five compared methods in presentation order.
var Methods = []string{MethodBaseU, MethodBaseC, MethodMLPU, MethodMLPC, MethodMLP}

// Options sizes one experimental run. The zero value gives the default
// workload: a 2000-user, 500-location world with 5-fold cross validation,
// scaled down from the paper's 139,180-user crawl (see DESIGN.md §2).
type Options struct {
	Seed      int64
	Users     int // default 2000
	Locations int // default 500
	Folds     int // default 5
	// FoldLimit caps how many folds are actually evaluated (default all);
	// benchmarks use 1 for wall-clock sanity.
	FoldLimit  int
	Iterations int // Gibbs sweeps per fit (default 15)
	// Shards is the per-fit shard count handed to core.Config (default 1,
	// the sequential chain; >1 runs the sharded sweep).
	Shards int
	// DisableGibbsEM turns off the (α, β) refinement (on by default).
	DisableGibbsEM bool
}

func (o Options) withDefaults() Options {
	if o.Users == 0 {
		o.Users = 2000
	}
	if o.Locations == 0 {
		o.Locations = 500
	}
	if o.Folds == 0 {
		o.Folds = 5
	}
	if o.FoldLimit == 0 || o.FoldLimit > o.Folds {
		o.FoldLimit = o.Folds
	}
	if o.Iterations == 0 {
		o.Iterations = 15
	}
	return o
}

// Runner generates the world once and lazily computes each experiment,
// sharing the expensive cross-validation pass across tables and figures.
type Runner struct {
	opts Options
	data *dataset.Dataset

	// Cross-validation artifacts (built by ensureCV).
	cvDone    bool
	homeEvals map[string]*eval.HomeEval
	// multiEvals[method][k-1] aggregates DP/DR@K over multi-location test
	// users, k = 1..3.
	multiEvals map[string][]*eval.MultiLocEval
	fig5Trace  *eval.ConvergenceTrace
	// Fold-0 models kept for the case studies.
	fold0MLP   *core.Model
	fold0BaseU *baseu.Model
	fold0Test  map[dataset.UserID]bool

	// Full-corpus artifacts (built by ensureFull).
	fullMLP *core.Model
}

// NewRunner generates the synthetic world for the given options.
func NewRunner(opts Options) (*Runner, error) {
	opts = opts.withDefaults()
	d, err := synth.Generate(synth.Config{
		Seed:         opts.Seed,
		NumUsers:     opts.Users,
		NumLocations: opts.Locations,
	})
	if err != nil {
		return nil, err
	}
	return &Runner{opts: opts, data: d}, nil
}

// Dataset exposes the generated world (read-only).
func (r *Runner) Dataset() *dataset.Dataset { return r.data }

// Options returns the (defaulted) options.
func (r *Runner) Options() Options { return r.opts }

// foldResult carries one fold's evaluations, merged deterministically in
// fold order after all workers finish.
type foldResult struct {
	home  map[string]*eval.HomeEval
	multi map[string][]*eval.MultiLocEval
	trace *eval.ConvergenceTrace
	mlp   *core.Model
	baseU *baseu.Model
	test  map[dataset.UserID]bool
}

// ensureCV runs the shared cross-validation pass: all five methods on each
// fold, accumulating home-prediction errors, DP/DR@K for multi-location
// users, and the fold-0 convergence trace. Folds are independent and run
// concurrently, bounded by GOMAXPROCS.
func (r *Runner) ensureCV() error {
	if r.cvDone {
		return nil
	}
	folds := dataset.KFold(len(r.data.Corpus.Users), r.opts.Folds, r.opts.Seed+17)

	results := make([]*foldResult, r.opts.FoldLimit)
	errs := make([]error, r.opts.FoldLimit)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for f := 0; f < r.opts.FoldLimit; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[f], errs[f] = r.runFold(f, folds[f])
		}(f)
	}
	wg.Wait()
	for f, err := range errs {
		if err != nil {
			return fmt.Errorf("experiments: fold %d: %w", f, err)
		}
	}

	r.homeEvals = map[string]*eval.HomeEval{}
	r.multiEvals = map[string][]*eval.MultiLocEval{}
	for _, m := range Methods {
		r.homeEvals[m] = &eval.HomeEval{}
		r.multiEvals[m] = []*eval.MultiLocEval{{}, {}, {}}
	}
	for _, res := range results {
		for _, m := range Methods {
			r.homeEvals[m].Merge(res.home[m])
			for k := 0; k < 3; k++ {
				r.multiEvals[m][k].Merge(res.multi[m][k])
			}
		}
	}
	r.fig5Trace = results[0].trace
	r.fold0MLP = results[0].mlp
	r.fold0BaseU = results[0].baseU
	r.fold0Test = results[0].test
	r.cvDone = true
	return nil
}

// runFold fits the five methods with fold f's labels hidden and evaluates
// them on the fold's test users.
func (r *Runner) runFold(f int, test []dataset.UserID) (*foldResult, error) {
	d := r.data
	gaz := d.Corpus.Gaz
	truth := d.Truth
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(test))

	res := &foldResult{
		home:  map[string]*eval.HomeEval{},
		multi: map[string][]*eval.MultiLocEval{},
		trace: &eval.ConvergenceTrace{},
		test:  make(map[dataset.UserID]bool, len(test)),
	}
	for _, m := range Methods {
		res.home[m] = &eval.HomeEval{}
		res.multi[m] = []*eval.MultiLocEval{{}, {}, {}}
	}
	for _, u := range test {
		res.test[u] = true
	}

	// --- Fit the five methods ---
	bu, err := baseu.Fit(c, baseu.Config{Seed: r.opts.Seed + int64(f)})
	if err != nil {
		return nil, fmt.Errorf("BaseU: %w", err)
	}
	res.baseU = bu
	bc, err := basec.Fit(c, basec.Config{})
	if err != nil {
		return nil, fmt.Errorf("BaseC: %w", err)
	}
	bcp := bc.NewPredictor()

	// Fit order is a fixed slice, not a map: it decides which variant's
	// error surfaces first and the order of progress output, so it must
	// not follow map iteration order (mlplint maporder).
	mlps := map[string]*core.Model{}
	for _, mv := range []struct {
		name    string
		variant core.Variant
	}{
		{MethodMLPU, core.FollowingOnly},
		{MethodMLPC, core.TweetingOnly},
		{MethodMLP, core.Full},
	} {
		name, variant := mv.name, mv.variant
		cfg := core.Config{
			Seed:       r.opts.Seed + 1000 + int64(f),
			Iterations: r.opts.Iterations,
			Variant:    variant,
			Shards:     r.opts.Shards,
			GibbsEM:    !r.opts.DisableGibbsEM,
		}
		if name == MethodMLP && f == 0 {
			// Fig. 5: trace test accuracy across sweeps.
			cfg.OnIteration = func(_ int, m *core.Model) {
				hit := 0
				for _, u := range test {
					pred := m.Home(u)
					if pred != dataset.NoCity && gaz.Distance(pred, truth.Home(u)) <= 100 {
						hit++
					}
				}
				res.trace.Record(float64(hit) / float64(len(test)))
			}
		}
		m, err := core.Fit(c, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		mlps[name] = m
	}
	res.mlp = mlps[MethodMLP]

	// --- Evaluate ---
	topK := func(method string, u dataset.UserID, k int) []gazetteer.CityID {
		switch method {
		case MethodBaseU:
			return bu.TopK(u, k)
		case MethodBaseC:
			return bcp.TopK(u, k)
		default:
			return mlps[method].TopK(u, k)
		}
	}
	for _, u := range test {
		trueHome := truth.Home(u)
		trueLocs := truth.TrueCities(u)
		multi := len(trueLocs) > 1
		for _, method := range Methods {
			top := topK(method, u, 3)
			if len(top) == 0 {
				res.home[method].AddMissing()
			} else {
				res.home[method].Add(gaz.Distance(top[0], trueHome))
			}
			if multi {
				for k := 1; k <= 3; k++ {
					kk := k
					if kk > len(top) {
						kk = len(top)
					}
					res.multi[method][k-1].Add(gaz, top[:kk], trueLocs, 100)
				}
			}
		}
	}
	return res, nil
}

// ensureFull fits MLP on the fully labeled corpus, used by the
// relationship-explanation experiments (the latent assignments exist
// regardless of labels).
func (r *Runner) ensureFull() error {
	if r.fullMLP != nil {
		return nil
	}
	m, err := core.Fit(&r.data.Corpus, core.Config{
		Seed:       r.opts.Seed + 7777,
		Iterations: r.opts.Iterations,
		Shards:     r.opts.Shards,
		GibbsEM:    !r.opts.DisableGibbsEM,
	})
	if err != nil {
		return err
	}
	r.fullMLP = m
	return nil
}

// relEligible reports whether edge s belongs to the relationship
// explanation ground truth, mirroring how the paper built its 4,426
// labeled relationships: edges of its 585 multi-location users whose
// "location assignments could be clearly identified by their shared
// regions". Here: edges touching at least one multi-location user,
// whose true assignments (when location-based) lie in one region
// (within 100 miles of each other). Noise-generated edges of those
// users stay eligible — the paper evaluates every labeled relationship,
// and a noise edge's correct explanation is the noise flag itself
// (relationshipEvals scores it accordingly); they carry no assignment
// pair, so the shared-region condition does not apply to them.
func (r *Runner) relEligible(s int) bool {
	e := r.data.Corpus.Edges[s]
	if len(r.data.Truth.Profiles[e.From]) < 2 && len(r.data.Truth.Profiles[e.To]) < 2 {
		return false
	}
	et := r.data.Truth.EdgeTruths[s]
	if et.Noise {
		return true
	}
	return r.data.Corpus.Gaz.Distance(et.X, et.Y) <= 100
}

// relationshipEvals computes Fig. 8's two curves: MLP assignments vs the
// home-location baseline, over the eligible edges.
func (r *Runner) relationshipEvals() (mlp, base *eval.RelEval, err error) {
	if err := r.ensureFull(); err != nil {
		return nil, nil, err
	}
	gaz := r.data.Corpus.Gaz
	truth := r.data.Truth
	baseline := relbase.New(&r.data.Corpus, nil)

	mlp, base = &eval.RelEval{}, &eval.RelEval{}
	for s := range r.data.Corpus.Edges {
		if !r.relEligible(s) {
			continue
		}
		et := truth.EdgeTruths[s]
		if et.Noise {
			// A noise-generated edge carries no true assignment pair to
			// measure against; its correct explanation is the noise flag
			// itself. Routing it to the random model scores as exact,
			// any location-based explanation as a miss. The home-location
			// baseline has no noise component, so it always misses here.
			if exp, ok := r.fullMLP.MAPExplainEdge(s); ok && exp.Noisy {
				mlp.Add(0, 0)
			} else {
				mlp.AddMissing()
			}
			base.AddMissing()
			continue
		}
		// Model-noise-flagged edges still carry (profile-drawn)
		// assignments — Eqs. 7–9 keep them — and the paper evaluates
		// every labeled relationship, so they are scored rather than
		// skipped.
		if exp, ok := r.fullMLP.MAPExplainEdge(s); ok {
			mlp.Add(gaz.Distance(exp.X, et.X), gaz.Distance(exp.Y, et.Y))
		} else {
			mlp.AddMissing()
		}
		if exp, ok := baseline.Explain(s); ok {
			base.Add(gaz.Distance(exp.X, et.X), gaz.Distance(exp.Y, et.Y))
		} else {
			base.AddMissing()
		}
	}
	return mlp, base, nil
}

// pickCaseStudyUsers returns multi-location fold-0 test users with the
// most relationships, for the Table 4 case studies.
func (r *Runner) pickCaseStudyUsers(n int) []dataset.UserID {
	adj := r.data.Corpus.BuildAdjacency()
	type cand struct {
		u   dataset.UserID
		deg int
	}
	var list []cand
	//mlp:allow maporder order-independent: list is fully sorted with a deterministic tie-break below
	for u := range r.fold0Test {
		if len(r.data.Truth.Profiles[u]) > 1 {
			list = append(list, cand{u, len(adj.Neighbors(u))})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].deg != list[j].deg {
			return list[i].deg > list[j].deg
		}
		return list[i].u < list[j].u
	})
	if len(list) > n {
		list = list[:n]
	}
	out := make([]dataset.UserID, len(list))
	for i, c := range list {
		out[i] = c.u
	}
	return out
}

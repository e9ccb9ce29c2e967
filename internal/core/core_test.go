package core

import (
	"math"
	"strings"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// testWorld caches one synthetic world per test binary run; it is treated
// as read-only by every test (CV folds copy the user slice).
var worldCache = map[int64]*dataset.Dataset{}

func testWorld(t testing.TB, seed int64) *dataset.Dataset {
	t.Helper()
	if d, ok := worldCache[seed]; ok {
		return d
	}
	d, err := synth.Generate(synth.Config{Seed: seed, NumUsers: 900, NumLocations: 250})
	if err != nil {
		t.Fatal(err)
	}
	worldCache[seed] = d
	return d
}

// skipIfShort gates the slow recovery/property tests (multi-fit, full
// worlds) out of `go test -short`; the smoke variants below cover the
// same behaviors at reduced scale for the fast CI leg.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow recovery test; run without -short")
	}
}

// checkInvariants asserts the collapsed-count bookkeeping of a fitted
// model between sweeps:
//
//   - every ϕ row is non-negative and sums to phiSum, which equals the
//     user's counted (µ = 0 / ν = 0) assignments;
//   - every venue-store row entry is positive, the entries sum to
//     venueSum[l] per city, and the grand total equals the number of
//     ν = 0 tweets;
//   - venueRSum[l] is exactly 1/(venueSum[l]+δ|V|);
//   - the ϕ+γ mirror pg is within 1e-9 (relative) of ϕ+γ;
//   - every worker and shard overlay is empty.
func checkInvariants(t *testing.T, m *Model) {
	t.Helper()
	c := m.corpus
	expect := make([]float64, len(c.Users))
	if m.useF {
		for s, e := range c.Edges {
			if !m.mu[s] {
				expect[e.From]++
				expect[e.To]++
			}
		}
	}
	locTweets := 0
	if m.useT {
		for k, tw := range c.Tweets {
			if !m.nu[k] {
				expect[tw.User]++
				locTweets++
			}
		}
	}
	for u := range c.Users {
		if m.phiSum[u] != expect[u] {
			t.Fatalf("user %d: phiSum=%v want %v", u, m.phiSum[u], expect[u])
		}
		var sum float64
		for i, v := range m.phi[u] {
			if v < 0 {
				t.Fatalf("user %d: negative count %v", u, v)
			}
			sum += v
			want := v + m.cands.gamma[u][i]
			if math.Abs(m.pg[u][i]-want) > 1e-9*want {
				t.Fatalf("user %d candidate %d: pg=%v, ϕ+γ=%v", u, i, m.pg[u][i], want)
			}
		}
		if math.Abs(sum-m.phiSum[u]) > 1e-6 {
			t.Fatalf("user %d: phi sums to %v, phiSum=%v", u, sum, m.phiSum[u])
		}
	}

	byCity := make([]float64, len(m.venueSum))
	var total float64
	for v := range m.ps.rows {
		r := &m.ps.rows[v]
		for i, l := range r.cities {
			if r.vals[i] <= 0 {
				t.Fatalf("venue %d city %d: non-positive count %v", v, l, r.vals[i])
			}
			byCity[l] += r.vals[i]
			total += r.vals[i]
		}
	}
	for l, s := range m.venueSum {
		if byCity[l] != s {
			t.Fatalf("city %d: venue counts sum to %v, venueSum=%v", l, byCity[l], s)
		}
		if want := 1 / (s + m.deltaTotal); m.venueRSum[l] != want {
			t.Fatalf("city %d: venueRSum=%v, want %v", l, m.venueRSum[l], want)
		}
	}
	if total != float64(locTweets) {
		t.Fatalf("venue total %v != location-based tweets %d", total, locTweets)
	}

	for _, ctx := range m.shCtxs {
		if len(ctx.ovlVenues) != 0 || len(ctx.ovlCities) != 0 {
			t.Fatalf("overlay not drained between sweeps: %d venues, %d cities",
				len(ctx.ovlVenues), len(ctx.ovlCities))
		}
		for l, d := range ctx.ovlSum {
			if d != 0 {
				t.Fatalf("overlay city %d holds delta %v between sweeps", l, d)
			}
		}
		if ctx.ovl != nil {
			for v := range ctx.ovl.rows {
				if r := &ctx.ovl.rows[v]; r.live() != 0 || r.touched {
					t.Fatalf("overlay row %d not reset between sweeps", v)
				}
			}
		}
	}
}

// fitFold hides the labels of one CV fold and fits the model.
func fitFold(t testing.TB, d *dataset.Dataset, cfg Config) (*Model, []dataset.UserID) {
	t.Helper()
	folds := dataset.KFold(len(d.Corpus.Users), 5, 99)
	test := folds[0]
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(test))
	m, err := Fit(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, test
}

// accAt100 computes ACC@100 of home prediction over the test users.
func accAt100(d *dataset.Dataset, m *Model, test []dataset.UserID) float64 {
	hit := 0
	for _, u := range test {
		pred := m.Home(u)
		truth := d.Truth.Home(u)
		if pred != dataset.NoCity && d.Corpus.Gaz.Distance(pred, truth) <= 100 {
			hit++
		}
	}
	return float64(hit) / float64(len(test))
}

func TestFitConfigValidation(t *testing.T) {
	d := testWorld(t, 1)
	bad := []Config{
		{Alpha: 0.5},
		{Beta: -1},
		{RhoF: 1.5},
		{Tau: -0.1},
		{Iterations: -3},
	}
	for i, cfg := range bad {
		if _, err := Fit(&d.Corpus, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	// Negative EM knobs are rejected by name: a negative EMPairSample
	// would empty every denominator histogram (silently keeping the
	// fallback α, β), a negative EMInterval would act as its absolute
	// value.
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"EMPairSample", Config{GibbsEM: true, EMPairSample: -1}},
		{"EMInterval", Config{GibbsEM: true, EMInterval: -5}},
	} {
		_, err := Fit(&d.Corpus, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s < 0: error %v, want one naming the field", c.field, err)
		}
	}
}

// TestValidateRefusesNonFinite: every float hyperparameter must be
// finite. The range checks are comparisons, all false for NaN, so a NaN
// Tau used to pass validation and panic in initState, and a NaN Delta
// or RhoF fitted without error. The error names the field.
func TestValidateRefusesNonFinite(t *testing.T) {
	if err := (Config{}).withDefaults().validate(); err != nil {
		t.Fatalf("default config refused: %v", err)
	}
	for _, f := range []struct {
		name string
		set  func(*Config, float64)
	}{
		{"RhoF", func(c *Config, v float64) { c.RhoF = v }},
		{"RhoT", func(c *Config, v float64) { c.RhoT = v }},
		{"Alpha", func(c *Config, v float64) { c.Alpha = v }},
		{"Beta", func(c *Config, v float64) { c.Beta = v }},
		{"Tau", func(c *Config, v float64) { c.Tau = v }},
		{"GammaBoost", func(c *Config, v float64) { c.GammaBoost = v }},
		{"Delta", func(c *Config, v float64) { c.Delta = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := Config{}.withDefaults()
			f.set(&cfg, v)
			if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), f.name+"=") {
				t.Errorf("%s=%v: error %v, want one naming the field", f.name, v, err)
			}
		}
	}
}

func TestFitRejectsEmptyVariantData(t *testing.T) {
	d := testWorld(t, 1)
	c := d.Corpus
	c.Tweets = nil
	if _, err := Fit(&c, Config{Variant: TweetingOnly, Iterations: 1}); err == nil {
		t.Error("MLP_C on a tweetless corpus should fail")
	}
}

func TestVariantString(t *testing.T) {
	if Full.String() != "MLP" || FollowingOnly.String() != "MLP_U" || TweetingOnly.String() != "MLP_C" {
		t.Error("variant names wrong")
	}
}

// TestCountInvariants verifies the collapsed count bookkeeping after a full
// fit: ϕ sums match relationship counts exactly and venue counts match the
// number of location-based tweets.
func TestCountInvariants(t *testing.T) {
	d := testWorld(t, 2)
	m, _ := fitFold(t, d, Config{Seed: 5, Iterations: 6})
	checkInvariants(t, m)
}

// TestCountInvariantsBothStores runs the invariants after every sweep
// of the sequential chain, whose tweet moves write the venue-major rows
// directly. The subtest keeps the name it had beside the retired map
// store and Workers sweep. The shard overlays, their fold and their reset
// are checked after every sweep by TestShardedGoldenPins.
func TestCountInvariantsBothStores(t *testing.T) {
	d := testWorld(t, 2)
	t.Run("venue/workers=1", func(t *testing.T) {
		cfg := Config{Seed: 5, Iterations: 6}
		cfg.OnIteration = func(_ int, m *Model) { checkInvariants(t, m) }
		m, _ := fitFold(t, d, cfg)
		checkInvariants(t, m)
	})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	d := testWorld(t, 3)
	cfg := Config{Seed: 11, Iterations: 4}
	m1, test := fitFold(t, d, cfg)
	m2, _ := fitFold(t, d, cfg)
	for _, u := range test {
		if m1.Home(u) != m2.Home(u) {
			t.Fatalf("user %d: homes differ across identical runs", u)
		}
	}
	p1 := m1.Profile(test[0])
	p2 := m2.Profile(test[0])
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("profiles differ across identical runs")
		}
	}
}

// TestHomePredictionRecovery: the headline sanity check — MLP must place a
// solid majority of held-out users within 100 miles on a world generated
// from its own model family.
func TestHomePredictionRecovery(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 4)
	m, test := fitFold(t, d, Config{Seed: 7, Iterations: 15})
	acc := accAt100(d, m, test)
	if acc < 0.5 {
		t.Errorf("MLP ACC@100 = %.3f, want >= 0.5", acc)
	}
}

// TestVariantOrdering: MLP (both resources) should not be substantially
// worse than either single-resource variant, mirroring Table 2's ordering.
func TestVariantOrdering(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 4)
	accs := map[Variant]float64{}
	for _, v := range []Variant{Full, FollowingOnly, TweetingOnly} {
		m, test := fitFold(t, d, Config{Seed: 7, Iterations: 12, Variant: v})
		accs[v] = accAt100(d, m, test)
	}
	t.Logf("ACC@100: MLP=%.3f MLP_U=%.3f MLP_C=%.3f", accs[Full], accs[FollowingOnly], accs[TweetingOnly])
	if accs[Full] < accs[FollowingOnly]-0.05 || accs[Full] < accs[TweetingOnly]-0.05 {
		t.Errorf("full model should match or beat single-resource variants: %v", accs)
	}
}

func TestVariantExplanationAvailability(t *testing.T) {
	d := testWorld(t, 2)
	mu, _ := fitFold(t, d, Config{Seed: 1, Iterations: 2, Variant: FollowingOnly})
	if _, ok := mu.ExplainTweet(0); ok {
		t.Error("MLP_U should not explain tweets")
	}
	if _, ok := mu.ExplainEdge(0); !ok {
		t.Error("MLP_U should explain edges")
	}
	mc, _ := fitFold(t, d, Config{Seed: 1, Iterations: 2, Variant: TweetingOnly})
	if _, ok := mc.ExplainEdge(0); ok {
		t.Error("MLP_C should not explain edges")
	}
	if _, ok := mc.ExplainTweet(0); !ok {
		t.Error("MLP_C should explain tweets")
	}
}

// TestNoiseRecovery: the mixture selectors should flag roughly the true
// fraction of noise relationships.
func TestNoiseRecovery(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 5)
	m, _ := fitFold(t, d, Config{Seed: 13, Iterations: 12})
	edgeNoise, tweetNoise := m.NoiseStats()
	t.Logf("estimated noise: edges=%.3f tweets=%.3f (true: 0.15, 0.20)", edgeNoise, tweetNoise)
	if edgeNoise < 0.02 || edgeNoise > 0.5 {
		t.Errorf("edge noise estimate %.3f implausible", edgeNoise)
	}
	if tweetNoise < 0.02 || tweetNoise > 0.55 {
		t.Errorf("tweet noise estimate %.3f implausible", tweetNoise)
	}

	// Noise flagging must correlate with true noise: P(flag | noise) >
	// P(flag | location-based). (High precision is not expected — a random
	// celebrity follow is only weakly distinguishable from a genuine
	// long-distance follow, for this model as for the paper's.)
	var flagNoise, noise, flagClean, clean float64
	for s := range d.Corpus.Edges {
		exp, ok := m.ExplainEdge(s)
		if !ok {
			t.Fatal("no explanation")
		}
		if d.Truth.EdgeTruths[s].Noise {
			noise++
			if exp.Noisy {
				flagNoise++
			}
		} else {
			clean++
			if exp.Noisy {
				flagClean++
			}
		}
	}
	pFlagNoise := flagNoise / noise
	pFlagClean := flagClean / clean
	t.Logf("P(flag|noise)=%.3f P(flag|clean)=%.3f", pFlagNoise, pFlagClean)
	if pFlagNoise < pFlagClean*1.05 {
		t.Errorf("noise flagging uncorrelated with truth: %.3f vs %.3f", pFlagNoise, pFlagClean)
	}
}

// TestProfileProperties: profiles are sorted, positive, and sum to 1.
func TestProfileProperties(t *testing.T) {
	d := testWorld(t, 2)
	m, test := fitFold(t, d, Config{Seed: 3, Iterations: 5})
	for _, u := range test[:50] {
		prof := m.Profile(u)
		if len(prof) == 0 {
			t.Fatalf("user %d: empty profile", u)
		}
		var sum float64
		for i, wl := range prof {
			if wl.Weight <= 0 {
				t.Fatalf("user %d: non-positive weight", u)
			}
			if i > 0 && prof[i-1].Weight < wl.Weight {
				t.Fatalf("user %d: profile not sorted", u)
			}
			sum += wl.Weight
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("user %d: profile sums to %f", u, sum)
		}
		// TopK and AboveThreshold agree with the profile.
		top2 := m.TopK(u, 2)
		if len(top2) > 0 && top2[0] != prof[0].City {
			t.Fatalf("user %d: TopK head mismatch", u)
		}
		for _, l := range m.AboveThreshold(u, 0.3) {
			found := false
			for _, wl := range prof {
				if wl.City == l && wl.Weight > 0.3 {
					found = true
				}
			}
			if !found {
				t.Fatalf("user %d: AboveThreshold returned %d not above threshold", u, l)
			}
		}
	}
}

// TestLabeledUsersKeepObservedHome: supervision should anchor training
// users at their registered home.
func TestLabeledUsersKeepObservedHome(t *testing.T) {
	d := testWorld(t, 2)
	m, test := fitFold(t, d, Config{Seed: 3, Iterations: 8})
	testSet := map[dataset.UserID]bool{}
	for _, u := range test {
		testSet[u] = true
	}
	agree, total := 0, 0
	for _, u := range d.Corpus.Users {
		if testSet[u.ID] || !u.Labeled() {
			continue
		}
		total++
		if m.Home(u.ID) == u.Home {
			agree++
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Errorf("only %.3f of labeled users keep their observed home", frac)
	}
}

// TestMultiLocationDiscovery: for multi-location users, the second true
// location should appear in the top-2 predictions much more often than by
// chance.
func TestMultiLocationDiscovery(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 6)
	// Fit with all labels visible — discovery of *secondary* locations is
	// the point here (the home is supervised).
	m, err := Fit(&d.Corpus, Config{Seed: 21, Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	found, total := 0, 0
	for _, u := range d.Truth.MultiLocationUsers() {
		truth := d.Truth.Profiles[u]
		second := truth[1].City
		total++
		for _, pred := range m.TopK(u, 2) {
			if d.Corpus.Gaz.Distance(pred, second) <= 100 {
				found++
				break
			}
		}
	}
	recall := float64(found) / float64(total)
	t.Logf("secondary-location recall@2 = %.3f over %d users", recall, total)
	if recall < 0.25 {
		t.Errorf("secondary location recall %.3f too low", recall)
	}
}

// TestGibbsEMRefinesAlpha: with EM enabled the exponent must move off its
// initialization and stay in the plausible decay band.
func TestGibbsEMRefinesAlpha(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 4)
	init := -0.9 // deliberately wrong initialization
	m, _ := fitFold(t, d, Config{Seed: 17, Iterations: 10, Alpha: init, GibbsEM: true, EMInterval: 3, EMPairSample: 50000})
	alpha, beta := m.AlphaBeta()
	t.Logf("EM refit: alpha=%.3f beta=%.6f", alpha, beta)
	if alpha == init {
		t.Error("EM never updated alpha")
	}
	if alpha > -0.05 || alpha < -2.0 {
		t.Errorf("refit alpha %.3f outside clamp", alpha)
	}
	if beta <= 0 {
		t.Errorf("refit beta %.6f", beta)
	}
}

// TestBlockedSamplerAgrees: the blocked ablation should reach comparable
// accuracy to the sequential sampler.
func TestBlockedSamplerAgrees(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 4)
	seq, test := fitFold(t, d, Config{Seed: 19, Iterations: 10})
	blk, _ := fitFold(t, d, Config{Seed: 19, Iterations: 10, BlockedSampler: true})
	accSeq := accAt100(d, seq, test)
	accBlk := accAt100(d, blk, test)
	t.Logf("sequential=%.3f blocked=%.3f", accSeq, accBlk)
	if math.Abs(accSeq-accBlk) > 0.12 {
		t.Errorf("samplers disagree: seq=%.3f blocked=%.3f", accSeq, accBlk)
	}
	// Blocked sampler must preserve count invariants too.
	checkInvariants(t, blk)
}

// TestNoiseMixtureAblation: disabling the mixture forces every selector to
// the location-based model.
func TestNoiseMixtureAblation(t *testing.T) {
	d := testWorld(t, 2)
	m, _ := fitFold(t, d, Config{Seed: 23, Iterations: 4, DisableNoiseMixture: true})
	e, tw := m.NoiseStats()
	if e != 0 || tw != 0 {
		t.Errorf("noise mixture disabled but NoiseStats = %f, %f", e, tw)
	}
}

// TestSupervisionAblation: without supervision, held-out accuracy should
// drop relative to the supervised model (the "anchoring" argument of
// Sec. 4.3).
func TestSupervisionAblation(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 4)
	sup, test := fitFold(t, d, Config{Seed: 29, Iterations: 10})
	unsup, _ := fitFold(t, d, Config{Seed: 29, Iterations: 10, DisableSupervision: true})
	accSup := accAt100(d, sup, test)
	accUnsup := accAt100(d, unsup, test)
	t.Logf("supervised=%.3f unsupervised=%.3f", accSup, accUnsup)
	if accSup < accUnsup-0.02 {
		t.Errorf("supervision should help: sup=%.3f unsup=%.3f", accSup, accUnsup)
	}
}

// TestOnIterationCallback fires once per sweep in order.
func TestOnIterationCallback(t *testing.T) {
	d := testWorld(t, 2)
	var iters []int
	folds := dataset.KFold(len(d.Corpus.Users), 5, 99)
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(folds[0]))
	_, err := Fit(c, Config{Seed: 1, Iterations: 5, OnIteration: func(it int, m *Model) {
		iters = append(iters, it)
		if m.Iterations() != it {
			t.Errorf("Iterations() = %d during callback %d", m.Iterations(), it)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 5 {
		t.Fatalf("callback fired %d times", len(iters))
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("callback order %v", iters)
		}
	}
}

// TestRelationshipExplanationBeatsChance: on non-noise edges with at least
// one multi-location endpoint, MLP's assignments should land within 100
// miles of the true assignments well above chance.
func TestRelationshipExplanationBeatsChance(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 6)
	m, err := Fit(&d.Corpus, Config{Seed: 31, Iterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for s, et := range d.Truth.EdgeTruths {
		if et.Noise {
			continue
		}
		e := d.Corpus.Edges[s]
		if len(d.Truth.Profiles[e.From]) < 2 && len(d.Truth.Profiles[e.To]) < 2 {
			continue
		}
		exp, ok := m.ExplainEdge(s)
		if !ok {
			t.Fatal("no explanation")
		}
		total++
		if !exp.Noisy &&
			d.Corpus.Gaz.Distance(exp.X, et.X) <= 100 &&
			d.Corpus.Gaz.Distance(exp.Y, et.Y) <= 100 {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("no multi-location edges to evaluate")
	}
	acc := float64(correct) / float64(total)
	t.Logf("relationship explanation ACC@100 = %.3f over %d edges", acc, total)
	if acc < 0.35 {
		t.Errorf("relationship accuracy %.3f too low", acc)
	}
}

// TestHomePredictionRecoverySmoke is the -short leg of the recovery
// suite: a reduced world and sweep count, looser bar, same behavior —
// MLP must still place a majority of held-out users within 100 miles.
func TestHomePredictionRecoverySmoke(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 45, NumUsers: 350, NumLocations: 120})
	if err != nil {
		t.Fatal(err)
	}
	folds := dataset.KFold(len(d.Corpus.Users), 5, 99)
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(folds[0]))
	m, err := Fit(c, Config{Seed: 7, Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	acc := accAt100(d, m, folds[0])
	t.Logf("smoke ACC@100 = %.3f", acc)
	if acc < 0.45 {
		t.Errorf("smoke MLP ACC@100 = %.3f, want >= 0.45", acc)
	}
}

// TestAllLocationCandidatesAblation runs the no-candidacy ablation on a
// tiny world (it is quadratic in |L|).
func TestAllLocationCandidatesAblation(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 41, NumUsers: 200, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	folds := dataset.KFold(len(d.Corpus.Users), 5, 99)
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(folds[0]))
	m, err := Fit(c, Config{Seed: 43, Iterations: 6, AllLocationCandidates: true})
	if err != nil {
		t.Fatal(err)
	}
	acc := accAt100(d, m, folds[0])
	t.Logf("all-location candidates ACC@100 = %.3f", acc)
	if acc < 0.2 {
		t.Errorf("ablation collapsed: %.3f", acc)
	}
	if len(m.Candidates(0)) != d.Corpus.Gaz.Len() {
		t.Error("candidates not expanded to all locations")
	}
}

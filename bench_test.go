// Benchmarks regenerating every table and figure of the paper's evaluation
// section (see DESIGN.md §4 for the index), plus the ablation benches for
// the design choices of Sec. 4 and micro-benchmarks of the hot paths.
//
// Each experiment bench runs a scaled-down world (bench-sized, one CV
// fold) end to end and reports the headline quality metric alongside
// wall-clock time, so `go test -bench .` both regenerates the paper's
// numbers in shape and tracks performance.
package mlprofile

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/eval"
	"mlprofile/internal/experiments"
	"mlprofile/internal/geo"
	"mlprofile/internal/randutil"
	"mlprofile/internal/synth"
)

// benchOpts is the bench-sized workload: one fold of a 700-user world.
var benchOpts = experiments.Options{
	Seed:       1,
	Users:      700,
	Locations:  200,
	FoldLimit:  1,
	Iterations: 10,
}

// benchRunner is shared across experiment benches (the world and the CV
// pass are deterministic, so sharing is sound and keeps -bench wall-clock
// reasonable).
var (
	benchRunnerOnce sync.Once
	benchRunner     *experiments.Runner
	benchRunnerErr  error
)

func sharedRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchRunnerOnce.Do(func() {
		benchRunner, benchRunnerErr = experiments.NewRunner(benchOpts)
	})
	if benchRunnerErr != nil {
		b.Fatal(benchRunnerErr)
	}
	return benchRunner
}

// --- One bench per paper table/figure ---

func BenchmarkFig3aFollowingPowerLaw(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		_, law, err := r.Fig3a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(law.Alpha, "alpha")
	}
}

func BenchmarkFig3bTweetingProbabilities(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		t, err := r.Fig3b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "venues")
	}
}

func BenchmarkTable2HomePrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		t, err := r.Table2()
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
}

func BenchmarkFig4aUserBasedAAD(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig4a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4bContentBasedAAD(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig4b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4cOverallAAD(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig4c(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Convergence(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		s, err := r.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		_ = s
	}
}

func BenchmarkTable3MultiLocation(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6DPAtRanks(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7DRAtRanks(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4CaseStudies(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8RelationshipExplanation(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		s, err := r.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Y["MLP"][3], "MLP-ACC@100")
		b.ReportMetric(s.Y["Base"][3], "Base-ACC@100")
	}
}

func BenchmarkTable5RelationshipCases(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// ablationWorld generates the fixed world used by the ablation benches.
var (
	ablationOnce sync.Once
	ablationData *dataset.Dataset
	ablationTest []dataset.UserID
	ablationErr  error
)

func ablationSetup(b *testing.B) (*dataset.Dataset, []dataset.UserID) {
	b.Helper()
	ablationOnce.Do(func() {
		ablationData, ablationErr = synth.Generate(synth.Config{Seed: 5, NumUsers: 700, NumLocations: 200})
		if ablationErr != nil {
			return
		}
		ablationTest = dataset.KFold(len(ablationData.Corpus.Users), 5, 99)[0]
	})
	if ablationErr != nil {
		b.Fatal(ablationErr)
	}
	return ablationData, ablationTest
}

// runAblation fits MLP under cfg and reports held-out home accuracy
// (ACC@100) and multi-location recall (DR@2) — the single-location
// ablation looks harmless on the former and collapses on the latter,
// which is exactly the paper's argument.
func runAblation(b *testing.B, cfg core.Config) {
	b.Helper()
	d, test := ablationSetup(b)
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(test))
	for i := 0; i < b.N; i++ {
		m, err := core.Fit(c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		hit := 0
		var ml eval.MultiLocEval
		for _, u := range test {
			if d.Corpus.Gaz.Distance(m.Home(u), d.Truth.Home(u)) <= 100 {
				hit++
			}
			if truth := d.Truth.TrueCities(u); len(truth) > 1 {
				ml.Add(d.Corpus.Gaz, m.TopK(u, 2), truth, 100)
			}
		}
		b.ReportMetric(float64(hit)/float64(len(test)), "ACC@100")
		b.ReportMetric(ml.DR(), "DR@2")
	}
}

// BenchmarkAblationBaseline is the reference configuration the other
// ablations compare against.
func BenchmarkAblationBaseline(b *testing.B) {
	runAblation(b, core.Config{Seed: 9, Iterations: 10, GibbsEM: true})
}

// BenchmarkAblationNoiseMixture removes the noisy-relationship selectors
// (ρ_f = ρ_t = 0): the first mixture level of Sec. 4.2.
func BenchmarkAblationNoiseMixture(b *testing.B) {
	runAblation(b, core.Config{Seed: 9, Iterations: 10, GibbsEM: true, DisableNoiseMixture: true})
}

// BenchmarkAblationSingleLocation collapses profiles to one candidate —
// the single-location assumption of the prior work the paper argues
// against.
func BenchmarkAblationSingleLocation(b *testing.B) {
	runAblation(b, core.Config{Seed: 9, Iterations: 10, GibbsEM: true, MaxCandidates: 1})
}

// BenchmarkAblationSupervision removes the home-label boost (Λ = 0): the
// "floating clusters" failure mode of Sec. 4.3.
func BenchmarkAblationSupervision(b *testing.B) {
	runAblation(b, core.Config{Seed: 9, Iterations: 10, GibbsEM: true, DisableSupervision: true})
}

// BenchmarkAblationCandidacy disables candidacy vectors (every location is
// a candidate for every user) — the efficiency claim of Sec. 4.3/4.5.
func BenchmarkAblationCandidacy(b *testing.B) {
	runAblation(b, core.Config{Seed: 9, Iterations: 10, GibbsEM: true, AllLocationCandidates: true})
}

// BenchmarkAblationGibbsEM holds (α, β) at their initial data fit instead
// of refining them.
func BenchmarkAblationGibbsEM(b *testing.B) {
	runAblation(b, core.Config{Seed: 9, Iterations: 10})
}

// BenchmarkAblationBlockedSampler swaps the paper's per-variable updates
// for a blocked joint (µ, x, y) draw.
func BenchmarkAblationBlockedSampler(b *testing.B) {
	runAblation(b, core.Config{Seed: 9, Iterations: 10, GibbsEM: true, BlockedSampler: true})
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkGibbsSweep measures raw sampler throughput: relationships
// resampled per second on the bench world, per-variable vs blocked edge
// kernel on the sequential chain.
func BenchmarkGibbsSweep(b *testing.B) {
	d, test := ablationSetup(b)
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(test))
	rels := len(c.Edges) + len(c.Tweets)
	for _, kernel := range []struct {
		name    string
		blocked bool
	}{{"pervar", false}, {"blocked", true}} {
		// "dist=table/workers=1" keeps the names cmd/mlpbench's cells
		// share, from when distance mode and workers were axes.
		name := fmt.Sprintf("kernel=%s/dist=table/workers=1", kernel.name)
		b.Run(name, func(b *testing.B) {
			// 8 sweeps per fit and a reduced init pair sample, so the op
			// measures sweep throughput rather than the per-fit setup;
			// cmd/mlpbench separates the two exactly.
			const sweeps = 8
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Seed: int64(i), Iterations: sweeps, NoiseBurnIn: 1, EMPairSample: 20000,
					BlockedSampler: kernel.blocked}
				if _, err := core.Fit(c, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rels*sweeps*b.N)/b.Elapsed().Seconds(), "rels/s")
		})
	}
}

// BenchmarkEdgeKernelTable isolates the edge kernels: a FollowingOnly
// fit on the bench world (no tweet phase), several sweeps so the per-fit
// setup (distance table build, candidates, init) amortizes (see
// cmd/mlpbench for the JSON trail).
func BenchmarkEdgeKernelTable(b *testing.B) {
	d, test := ablationSetup(b)
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(test))
	const sweeps = 4
	for _, kernel := range []struct {
		name    string
		blocked bool
	}{{"pervar", false}, {"blocked", true}} {
		b.Run(kernel.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Seed: 9, Variant: core.FollowingOnly, Iterations: sweeps,
					BlockedSampler: kernel.blocked}
				if _, err := core.Fit(c, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(c.Edges)*sweeps), "edge-updates/op")
		})
	}
}

// BenchmarkTweetKernel isolates the tweet kernel the same way: a
// TweetingOnly fit has no edge phase, so a sweep is exactly one pass of
// updateTweet over the corpus.
func BenchmarkTweetKernel(b *testing.B) {
	d, test := ablationSetup(b)
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(test))
	const sweeps = 8
	for i := 0; i < b.N; i++ {
		cfg := core.Config{Seed: 9, Variant: core.TweetingOnly, Iterations: sweeps, NoiseBurnIn: 1}
		if _, err := core.Fit(c, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(c.Tweets)*sweeps*b.N)/b.Elapsed().Seconds(), "tweet-updates/s")
}

func BenchmarkHaversine(b *testing.B) {
	p := geo.Point{Lat: 30.2672, Lon: -97.7431}
	q := geo.Point{Lat: 34.0522, Lon: -118.2437}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += geo.Miles(p, q)
	}
	_ = sink
}

func BenchmarkCategorical(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	weights := make([]float64, 32)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += randutil.Categorical(rng, weights)
	}
	_ = sink
}

func BenchmarkAliasDraw(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	weights := make([]float64, 1024)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	alias, err := randutil.NewAlias(weights)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += alias.Draw(rng)
	}
	_ = sink
}

func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.Config{Seed: int64(i), NumUsers: 700, NumLocations: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/stats"
	"mlprofile/internal/synth"
)

// pairModel is the part of a fit the power-law fits read — corpus,
// distances, the defaulted config, the model RNG at cfg.Seed and the
// size cap of the home index's memo — before any fit phase has run.
func pairModel(c *dataset.Corpus, cfg Config, maxU int) *Model {
	cfg = cfg.withDefaults()
	return &Model{
		cfg:    cfg,
		corpus: c,
		dc:     newDistCalc(c.Gaz),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		maxU:   maxU,
		alpha:  cfg.Alpha,
		beta:   cfg.Beta,
	}
}

// perSamplePairHistogram is the labeled-pair estimator without the home
// index: the same draws, with every sample's clamped distance evaluated
// and added on its own. It is the reference labeledPairHistogram must
// reproduce bit for bit.
func perSamplePairHistogram(m *Model) *stats.Histogram {
	var labeled []int32
	for i, u := range m.corpus.Users {
		if u.Labeled() {
			labeled = append(labeled, int32(i))
		}
	}
	nL := len(labeled)
	if nL < 2 {
		return nil
	}
	h, _ := stats.NewLogHistogram(histMin, histRatio, histBins)
	scale := float64(nL) * float64(nL-1) / float64(m.cfg.EMPairSample)
	for i := 0; i < m.cfg.EMPairSample; i++ {
		a := labeled[m.rng.Intn(nL)]
		b := labeled[m.rng.Intn(nL)]
		for b == a {
			b = labeled[m.rng.Intn(nL)]
		}
		d := m.dc.miles(m.corpus.Users[a].Home, m.corpus.Users[b].Home)
		if d < histMin {
			d = histMin
		}
		h.Add(d, scale)
	}
	return h
}

// keepLabels hides every label except those of the first n labeled users.
func keepLabels(c *dataset.Corpus, n int) *dataset.Corpus {
	var hide []dataset.UserID
	for _, u := range c.LabeledUsers() {
		if n > 0 {
			n--
			continue
		}
		hide = append(hide, u)
	}
	return c.WithUsers(c.HideLabels(hide))
}

// TestLabeledPairHistogramMemoMatchesPerSample locks the home index's
// bit identity: over three successive calls (a cold memo, then warm
// ones), labeledPairHistogram equals the per-sample estimator in every
// bin, the overflow and the total, and leaves the model RNG where the
// per-sample draws leave it. It covers the memo, the above-cap path
// (budget 0, no memo), a world where a quarter of the second draws
// collide (four labeled users) and the initial fit's doubly-labeled edge
// loop, which reads the same memo.
func TestLabeledPairHistogramMemoMatchesPerSample(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 17, NumUsers: 300, NumLocations: 120})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 5, EMPairSample: 20000}
	for _, w := range []struct {
		name string
		c    *dataset.Corpus
	}{
		{"all-labeled", &d.Corpus},
		{"four-labeled", keepLabels(&d.Corpus, 4)},
	} {
		for _, maxU := range []int{maxDenseUniverse, 0} {
			t.Run(fmt.Sprintf("%s/maxU=%d", w.name, maxU), func(t *testing.T) {
				ref, got := pairModel(w.c, cfg, maxU), pairModel(w.c, cfg, maxU)
				for call := 1; call <= 3; call++ {
					want, h := perSamplePairHistogram(ref), got.labeledPairHistogram()
					for i := 0; i < want.Bins(); i++ {
						if h.Count(i) != want.Count(i) {
							t.Fatalf("call %d bin %d: %v, per-sample %v", call, i, h.Count(i), want.Count(i))
						}
					}
					if h.Overflow() != want.Overflow() || h.Total() != want.Total() {
						t.Fatalf("call %d: overflow %v total %v, per-sample %v and %v",
							call, h.Overflow(), h.Total(), want.Overflow(), want.Total())
					}
				}
				if a, b := got.rng.Int63(), ref.rng.Int63(); a != b {
					t.Fatalf("next draw %d, per-sample %d: the RNG moved differently", a, b)
				}
				if memo := got.homes.bins != nil; memo != (maxU > 0) {
					t.Errorf("memo allocated = %v at maxU=%d", memo, maxU)
				}
			})
		}
	}

	// The edge loop: the initial data fit reads the memo for doubly-
	// labeled edges and must land on the same (α, β) and RNG state as
	// the per-sample evaluation of the above-cap path.
	memo, perSample := pairModel(&d.Corpus, cfg, maxDenseUniverse), pairModel(&d.Corpus, cfg, 0)
	memo.initPowerLawFromData(true, true)
	perSample.initPowerLawFromData(true, true)
	if memo.alpha == 0 || memo.alpha != perSample.alpha || memo.beta != perSample.beta {
		t.Errorf("initial fit (α, β) = (%v, %v) with the memo, (%v, %v) without",
			memo.alpha, memo.beta, perSample.alpha, perSample.beta)
	}
	if a, b := memo.rng.Int63(), perSample.rng.Int63(); a != b {
		t.Errorf("initial fit: next draw %d with the memo, %d without", a, b)
	}
}

// TestHomeIndexLivesOnlyDuringFit locks the home index's lifetime the way
// TestUniverseMatricesLiveOnlyDuringFit locks the matrices': built for
// the initial power-law fit and kept through the sweeps' EM refits,
// dropped when Fit returns, and never built by a snapshot loader (whole
// file, sharded directory, one shard).
func TestHomeIndexLivesOnlyDuringFit(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 19, NumUsers: 150, NumLocations: 80})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Seed: 1, Iterations: 2, Shards: shards, GibbsEM: true, EMInterval: 1, EMPairSample: 5000}
			cfg.OnIteration = func(_ int, m *Model) {
				if m.homes == nil || m.homes.bins == nil {
					t.Fatal("sweeps ran without the home index and its memo")
				}
			}
			m, err := Fit(&d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.homes != nil {
				t.Error("Fit left the home index behind")
			}

			path := filepath.Join(t.TempDir(), "model")
			loaders := []func() (*Model, error){func() (*Model, error) { return LoadSnapshot(&d.Corpus, path) }}
			save := m.SaveSnapshot
			if shards > 1 {
				save = m.SaveShardedSnapshot
				loaders = append(loaders, func() (*Model, error) { return LoadSnapshotShard(&d.Corpus, path, 1) })
			}
			if err := save(path); err != nil {
				t.Fatal(err)
			}
			for i, load := range loaders {
				loaded, err := load()
				if err != nil {
					t.Fatal(err)
				}
				if loaded.homes != nil {
					t.Errorf("loader %d built a home index", i)
				}
			}
		})
	}
}

// BenchmarkLabeledPairHistogram times one denominator call at the
// default EMPairSample on the world shape of bench/'s fit-small workload
// (700 users, 200 cities, fold 0's labels hidden). cold is a fit's first
// call, which builds the home index and fills its memo as pairs are
// drawn; warm is calls 2–5 of the same fit, which read the memo; nomemo
// is any call above the memo's size cap, which evaluates every sample's
// distance as the estimator did before the index.
func BenchmarkLabeledPairHistogram(b *testing.B) {
	d, err := synth.Generate(synth.Config{Seed: 17, NumUsers: 700, NumLocations: 200})
	if err != nil {
		b.Fatal(err)
	}
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(dataset.KFold(len(d.Corpus.Users), 5, 99)[0]))
	cfg := Config{Seed: 3}
	b.Run("cold", func(b *testing.B) {
		m := pairModel(c, cfg, maxDenseUniverse)
		for i := 0; i < b.N; i++ {
			m.homes = nil
			m.labeledPairHistogram()
		}
		b.ReportMetric(float64(len(m.homes.homes)), "homes")
	})
	b.Run("warm", func(b *testing.B) {
		m := pairModel(c, cfg, maxDenseUniverse)
		for i := 0; i < b.N; i++ {
			if i%4 == 0 {
				b.StopTimer()
				m.homes = nil
				m.labeledPairHistogram()
				b.StartTimer()
			}
			m.labeledPairHistogram()
		}
	})
	b.Run("nomemo", func(b *testing.B) {
		m := pairModel(c, cfg, 0)
		for i := 0; i < b.N; i++ {
			m.labeledPairHistogram()
		}
	})
}

package core

import (
	"bytes"
	"math"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/synth"
)

// TestMAPExplainAgreesWithSamples: the MAP explanation should usually
// match or improve on the final Gibbs sample against ground truth.
func TestMAPExplainBeatsFinalSample(t *testing.T) {
	d := testWorld(t, 6)
	m, err := Fit(&d.Corpus, Config{Seed: 31, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	gaz := d.Corpus.Gaz
	sampleHits, mapHits, total := 0, 0, 0
	for s, et := range d.Truth.EdgeTruths {
		if et.Noise {
			continue
		}
		e := d.Corpus.Edges[s]
		if len(d.Truth.Profiles[e.From]) < 2 && len(d.Truth.Profiles[e.To]) < 2 {
			continue
		}
		if gaz.Distance(et.X, et.Y) > 100 {
			continue
		}
		sample, ok1 := m.ExplainEdge(s)
		mapExp, ok2 := m.MAPExplainEdge(s)
		if !ok1 || !ok2 {
			t.Fatal("explanations unavailable")
		}
		total++
		if gaz.Distance(sample.X, et.X) <= 100 && gaz.Distance(sample.Y, et.Y) <= 100 {
			sampleHits++
		}
		if gaz.Distance(mapExp.X, et.X) <= 100 && gaz.Distance(mapExp.Y, et.Y) <= 100 {
			mapHits++
		}
	}
	if total == 0 {
		t.Fatal("no eligible edges")
	}
	sAcc := float64(sampleHits) / float64(total)
	mAcc := float64(mapHits) / float64(total)
	t.Logf("sample ACC@100 = %.3f, MAP ACC@100 = %.3f over %d edges", sAcc, mAcc, total)
	if mAcc < sAcc-0.03 {
		t.Errorf("MAP readout (%.3f) should not be worse than the final sample (%.3f)", mAcc, sAcc)
	}
}

// TestMAPExplainRespectsVariant: unavailable when edges are not consumed.
func TestMAPExplainRespectsVariant(t *testing.T) {
	d := testWorld(t, 2)
	m, _ := fitFold(t, d, Config{Seed: 1, Iterations: 2, Variant: TweetingOnly})
	if _, ok := m.MAPExplainEdge(0); ok {
		t.Error("MLP_C should not MAP-explain edges")
	}
}

// TestNoiseBurnInHoldsSelectorsOff: during the burn-in window every
// relationship stays location-based.
func TestNoiseBurnInHoldsSelectorsOff(t *testing.T) {
	d := testWorld(t, 2)
	folds := dataset.KFold(len(d.Corpus.Users), 5, 99)
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(folds[0]))
	sawZeroDuringBurnIn := true
	sawNoiseAfter := false
	_, err := Fit(c, Config{Seed: 3, Iterations: 8, NoiseBurnIn: 4, OnIteration: func(it int, m *Model) {
		e, tw := m.NoiseStats()
		if it <= 4 && (e != 0 || tw != 0) {
			sawZeroDuringBurnIn = false
		}
		if it > 4 && (e > 0 || tw > 0) {
			sawNoiseAfter = true
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !sawZeroDuringBurnIn {
		t.Error("noise selectors active during burn-in")
	}
	if !sawNoiseAfter {
		t.Error("noise selectors never activated after burn-in")
	}
}

// TestProfileReadoutStableAcrossCalls: Profile must be a pure read-out.
func TestProfileReadoutPure(t *testing.T) {
	d := testWorld(t, 2)
	m, test := fitFold(t, d, Config{Seed: 3, Iterations: 4})
	u := test[0]
	a := m.Profile(u)
	b := m.Profile(u)
	if len(a) != len(b) {
		t.Fatal("profile length changed between calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("profile changed between read-only calls")
		}
	}
	// TopK with huge k returns the full candidate set, no panic.
	if got := m.TopK(u, 10000); len(got) != len(m.Candidates(u)) {
		t.Errorf("TopK(10000) = %d entries, want %d", len(got), len(m.Candidates(u)))
	}
}

// TestVenueProbabilityReadout: ψ̂ readouts normalize over the venue
// vocabulary and degrade to zero off-range and for variants without
// tweeting observations.
func TestVenueProbabilityReadout(t *testing.T) {
	d := testWorld(t, 2)
	mv, _ := fitFold(t, d, Config{Seed: 5, Iterations: 4})

	L := d.Corpus.Gaz.Len()
	for l := 0; l < L; l += 7 {
		var sum float64
		for v := 0; v < d.Corpus.Venues.Len(); v++ {
			pv := mv.VenueProbability(gazetteer.CityID(l), gazetteer.VenueID(v))
			if pv <= 0 {
				t.Fatalf("ψ̂(%d, %d) = %v, want > 0 (Dirichlet smoothing)", l, v, pv)
			}
			sum += pv
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("ψ̂(%d, ·) sums to %v", l, sum)
		}
	}
	if mv.VenueProbability(-1, 0) != 0 || mv.VenueProbability(0, gazetteer.VenueID(d.Corpus.Venues.Len())) != 0 {
		t.Error("out-of-range ψ̂ readout should be zero")
	}
	mu, _ := fitFold(t, d, Config{Seed: 5, Iterations: 2, Variant: FollowingOnly})
	if mu.VenueProbability(0, 0) != 0 {
		t.Error("MLP_U has no tweeting model; ψ̂ readout should be zero")
	}
}

// mapExplainOracle is MAPExplainEdge's exhaustive form: every candidate
// pair in row-major (i, j) order, θ̂ recomputed per pair, first maximum
// kept. The pruned walk must reproduce it on every edge.
func mapExplainOracle(m *Model, s int) EdgeExplanation {
	e := m.corpus.Edges[s]
	candI := m.cands.cand[e.From]
	candJ := m.cands.cand[e.To]
	bestX, bestY, bestW := 0, 0, -1.0
	for i := range candI {
		ti := m.theta(e.From, i, false)
		if ti <= 0 {
			continue
		}
		for j := range candJ {
			tj := m.theta(e.To, j, false)
			w := ti * tj * m.dt.pow(candI[i], candJ[j])
			if w > bestW {
				bestX, bestY, bestW = i, j, w
			}
		}
	}
	p1 := m.cfg.RhoF * m.fr
	p0 := (1 - m.cfg.RhoF) * m.beta * bestW
	return EdgeExplanation{X: candI[bestX], Y: candJ[bestY], Noisy: p1 > p0}
}

// TestMAPExplainMatchesExhaustiveScan compares the pruned MAP walk with
// the exhaustive oracle on every edge of the golden worlds — the
// determinism world, the long-run tweet world and the 2,200-city world —
// for the fitted model and for its snapshot-loaded twin.
func TestMAPExplainMatchesExhaustiveScan(t *testing.T) {
	for _, g := range []struct {
		name  string
		world synth.Config
		cfg   Config
	}{
		{"golden/table", *goldenWorld(t), goldenCfg()},
		{"long-run", longRunWorld, Config{Seed: 7, Iterations: 6, GibbsEM: true, EMInterval: 3, EMPairSample: 20000}},
		{"wide", wideWorld(105, 150), Config{Seed: 7, Iterations: 4, Shards: 4, GibbsEM: true, EMInterval: 2, EMPairSample: 20000}},
	} {
		t.Run(g.name, func(t *testing.T) {
			d, err := synth.Generate(g.world)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Fit(&d.Corpus, g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.EncodeSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := DecodeSnapshot(&d.Corpus, &buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, mm := range []struct {
				name string
				m    *Model
			}{{"fitted", m}, {"loaded", loaded}} {
				for s := range d.Corpus.Edges {
					got, ok := mm.m.MAPExplainEdge(s)
					if want := mapExplainOracle(mm.m, s); !ok || got != want {
						t.Fatalf("%s edge %d: pruned %+v (ok=%v), exhaustive %+v", mm.name, s, got, ok, want)
					}
				}
			}
		})
	}
}

// TestMAPExplainTieKeepsRowMajorFirst hand-builds an edge whose two best
// pairs weigh exactly the same: both endpoints hold candidates A and B
// (1,000 miles apart) with θ̂_I = (¼, ¾) and θ̂_J = (¾, ¼), so (A, A) and
// (B, B) both weigh 3/16 at d = 1. The θ̂-ordered walk meets (B, B)
// first, but the exhaustive scan's first maximum is (A, A) — row-major
// index (0, 0) — and the pruned walk must return it.
func TestMAPExplainTieKeepsRowMajorFirst(t *testing.T) {
	g := milesApartGazetteer(t, []float64{1000})
	c := &dataset.Corpus{
		Gaz:   g,
		Users: []dataset.User{{ID: 0, Home: dataset.NoCity}, {ID: 1, Home: dataset.NoCity}},
		Edges: []dataset.FollowEdge{{From: 0, To: 1}},
	}
	cand := []gazetteer.CityID{0, 1}
	const alpha = -0.55
	m := &Model{
		cfg:    Config{RhoF: 0.1},
		corpus: c,
		dc:     newDistCalc(g),
		useF:   true,
		alpha:  alpha,
		beta:   0.01,
		fr:     0.5,
		cands: &candidateSet{
			cand:     [][]gazetteer.CityID{cand, cand},
			gamma:    [][]float64{{1, 3}, {3, 1}},
			gammaSum: []float64{4, 4},
		},
		phi:    [][]float64{{0, 0}, {0, 0}},
		phiSum: []float64{0, 0},
	}
	m.dt = newDistTable(m.dc, g.Len(), m.cands.cand, 0)
	m.dt.setAlpha(alpha)
	if w00, w11 := m.theta(0, 0, false)*m.theta(1, 0, false)*m.dt.pow(0, 0), m.theta(0, 1, false)*m.theta(1, 1, false)*m.dt.pow(1, 1); w00 != w11 {
		t.Fatalf("constructed weights %v and %v do not tie", w00, w11)
	}
	got, ok := m.MAPExplainEdge(0)
	want := mapExplainOracle(m, 0)
	if !ok || got != want || got.X != 0 || got.Y != 0 {
		t.Errorf("MAP %+v (ok=%v), want the row-major first maximum %+v = (A, A)", got, ok, want)
	}
}

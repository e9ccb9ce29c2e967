package core

import (
	"math"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
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

package core

import (
	"math"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// TestSweepPlanPartition: the edge color classes must partition the edges
// with no two edges in a class sharing an endpoint, and the tweet shards
// must partition the tweets with no author split across shards.
func TestSweepPlanPartition(t *testing.T) {
	d := testWorld(t, 2)
	c := &d.Corpus
	const workers = 4
	p := buildSweepPlan(c, workers, true, true)

	seenEdge := make([]bool, len(c.Edges))
	for ci, class := range p.edgeClasses {
		touched := map[dataset.UserID]bool{}
		for _, s := range class {
			if seenEdge[s] {
				t.Fatalf("edge %d in two classes", s)
			}
			seenEdge[s] = true
			e := c.Edges[s]
			if touched[e.From] || touched[e.To] {
				t.Fatalf("class %d: two edges share a user", ci)
			}
			touched[e.From] = true
			touched[e.To] = true
		}
	}
	for s, ok := range seenEdge {
		if !ok {
			t.Fatalf("edge %d missing from plan", s)
		}
	}

	if len(p.tweetShards) != workers {
		t.Fatalf("got %d tweet shards, want %d", len(p.tweetShards), workers)
	}
	seenTweet := make([]bool, len(c.Tweets))
	owner := map[dataset.UserID]int{}
	for w, shard := range p.tweetShards {
		for _, k := range shard {
			if seenTweet[k] {
				t.Fatalf("tweet %d in two shards", k)
			}
			seenTweet[k] = true
			u := c.Tweets[k].User
			if prev, ok := owner[u]; ok && prev != w {
				t.Fatalf("user %d split across shards %d and %d", u, prev, w)
			}
			owner[u] = w
		}
	}
	for k, ok := range seenTweet {
		if !ok {
			t.Fatalf("tweet %d missing from plan", k)
		}
	}
}

// TestParallelDeterministicForFixedWorkers: the parallel sampler must be
// fully reproducible for a fixed (Seed, Workers) pair — the partition is
// static and every worker stream is seeded from (Seed, sweep, worker).
func TestParallelDeterministicForFixedWorkers(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenCfg()
	cfg.Workers = 4
	m1, err := Fit(&d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(&d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f1, f2 := fitFingerprint(m1), fitFingerprint(m2); f1 != f2 {
		t.Errorf("Workers=4 fingerprints differ across identical runs: %#x vs %#x", f1, f2)
	}
}

// TestParallelCountInvariants: the deferred venue overlay and the
// user-disjoint ϕ updates must leave the collapsed counts exactly
// consistent after a parallel fit, for both edge kernels.
func TestParallelCountInvariants(t *testing.T) {
	d := testWorld(t, 2)
	for name, cfg := range map[string]Config{
		"per-variable": {Seed: 5, Iterations: 6, Workers: 4},
		"blocked":      {Seed: 5, Iterations: 6, Workers: 4, BlockedSampler: true},
	} {
		t.Run(name, func(t *testing.T) {
			m, _ := fitFold(t, d, cfg)
			checkInvariants(t, m)
		})
	}
}

// TestParallelMatchesSequentialQuality: Workers=N draws a different (but
// equally valid) chain than Workers=1; held-out accuracy and the noise
// estimates must agree within tolerance.
func TestParallelMatchesSequentialQuality(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 4)
	seq, test := fitFold(t, d, Config{Seed: 19, Iterations: 10, Workers: 1})
	par, _ := fitFold(t, d, Config{Seed: 19, Iterations: 10, Workers: 4})
	accSeq := accAt100(d, seq, test)
	accPar := accAt100(d, par, test)
	t.Logf("sequential=%.3f parallel=%.3f", accSeq, accPar)
	if math.Abs(accSeq-accPar) > 0.12 {
		t.Errorf("parallel sampler diverged: seq=%.3f par=%.3f", accSeq, accPar)
	}
	enS, tnS := seq.NoiseStats()
	enP, tnP := par.NoiseStats()
	t.Logf("noise: seq=(%.3f, %.3f) par=(%.3f, %.3f)", enS, tnS, enP, tnP)
	if math.Abs(enS-enP) > 0.1 || math.Abs(tnS-tnP) > 0.1 {
		t.Errorf("noise estimates diverged: seq=(%.3f, %.3f) par=(%.3f, %.3f)", enS, tnS, enP, tnP)
	}
}

// TestParallelEdgesOnlyCorpus: a corpus with edges but no tweets is legal
// for the Full variant; the parallel sweep must skip the tweet phase
// instead of indexing the empty shard list (regression: panicked).
func TestParallelEdgesOnlyCorpus(t *testing.T) {
	d := testWorld(t, 1)
	c := d.Corpus
	c.Tweets = nil
	m, err := Fit(&c, Config{Seed: 3, Iterations: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations() != 3 {
		t.Errorf("ran %d iterations", m.Iterations())
	}
}

// TestWorkersValidation: negative worker counts are rejected, zero means
// GOMAXPROCS.
func TestWorkersValidation(t *testing.T) {
	d := testWorld(t, 1)
	if _, err := Fit(&d.Corpus, Config{Iterations: 1, Workers: -2}); err == nil {
		t.Error("negative Workers accepted")
	}
	m, err := Fit(&d.Corpus, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().Workers < 1 {
		t.Errorf("defaulted Workers = %d", m.Config().Workers)
	}
}

package core

import (
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// equivWorlds are the three synthetic regimes the fused-draw pins are
// captured on: a sparse following graph (little evidence per user, long
// phi tails), a tweet-heavy corpus (edge kernel rarely dominant), and
// the default mixed regime.
func equivWorlds() []struct {
	name string
	cfg  synth.Config
} {
	return []struct {
		name string
		cfg  synth.Config
	}{
		{"sparse-graph", synth.Config{Seed: 101, NumUsers: 500, NumLocations: 150, MeanFriends: 5, MeanTweets: 3}},
		{"tweet-heavy", synth.Config{Seed: 102, NumUsers: 400, NumLocations: 150, MeanFriends: 4, MeanTweets: 40}},
		{"mixed", synth.Config{Seed: 103, NumUsers: 500, NumLocations: 200}},
	}
}

// heldOutCorpus generates the world and hides fold 0's labels: the
// corpus every pinned fit here runs on.
func heldOutCorpus(t *testing.T, wcfg synth.Config) *dataset.Corpus {
	t.Helper()
	d, err := synth.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	folds := dataset.KFold(len(d.Corpus.Users), 5, 99)
	return d.Corpus.WithUsers(d.Corpus.HideLabels(folds[0]))
}

// fusedDrawPins are the fingerprints of the scan draw (raw weight fill,
// then Categorical's sum and scan passes) on the equivalence worlds
// under both edge kernels, captured while that path was still in the
// tree. The fused draw reproduced every one bit for bit: it consumes
// randomness draw for draw like the scan and accumulates in the same
// order, and its one arithmetic deviation (the tweet fills' reciprocal
// ψ̂, ≤2 ulp per weight) flips no draw on these worlds.
var fusedDrawPins = map[string]uint64{
	"per-variable/sparse-graph": 0x30d988233e13aa9a,
	"per-variable/tweet-heavy":  0xb6733eea7dbcbf0f,
	"per-variable/mixed":        0xb3106972a5b79bd4,
	"blocked/sparse-graph":      0x0cd1103595d62841,
	"blocked/tweet-heavy":       0x0a0bf76513cb1bc8,
	"blocked/mixed":             0xff747c18d80cc9af,
}

// TestFusedDrawEquivalence is the FusedDraw leg of the equivalence
// layer: on every world and for both edge kernels, the fused draw must
// reproduce the scan draw's fingerprint. A mismatch means the fused
// pipeline drifted (RNG consumption, accumulation order, or an
// inversion-boundary bug).
func TestFusedDrawEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence property tests run full fits; skipped in -short")
	}
	for _, kernel := range []struct {
		name    string
		blocked bool
	}{{"per-variable", false}, {"blocked", true}} {
		for _, w := range equivWorlds() {
			name := kernel.name + "/" + w.name
			t.Run(name, func(t *testing.T) {
				cfg := Config{
					Seed:           7,
					Iterations:     12,
					GibbsEM:        true,
					EMInterval:     4,
					EMPairSample:   30000,
					BlockedSampler: kernel.blocked,
				}
				m, err := Fit(heldOutCorpus(t, w.cfg), cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := fitFingerprint(m)
				t.Logf("fingerprint: %#x", got)
				if want := fusedDrawPins[name]; got != want {
					t.Errorf("fingerprint %#x differs from the scan draw's %#x", got, want)
				}
			})
		}
	}
}

// TestFusedDrawEquivalenceSmoke is the -short leg of the FusedDraw
// equivalence: one small mixed world, per-variable kernel, plus a
// Shards=4 repeat so the per-shard fused streams are covered. The
// sequential pin is the scan draw's; the Shards=4 pin was captured from
// the same fit before the Workers sweep was retired.
func TestFusedDrawEquivalenceSmoke(t *testing.T) {
	c := heldOutCorpus(t, synth.Config{Seed: 104, NumUsers: 250, NumLocations: 100})
	for _, p := range []struct {
		shards      int
		fingerprint uint64
	}{{1, 0x8ee079a01a2858a6}, {4, 0x1ca5b1885e2ae2f6}} {
		m, err := Fit(c, Config{Seed: 7, Iterations: 8, Shards: p.shards, GibbsEM: true, EMInterval: 4, EMPairSample: 20000})
		if err != nil {
			t.Fatal(err)
		}
		if got := fitFingerprint(m); got != p.fingerprint {
			t.Errorf("shards=%d smoke fingerprint %#x differs from its pin %#x", p.shards, got, p.fingerprint)
		}
	}
}

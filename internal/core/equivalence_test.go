package core

import (
	"fmt"
	"math"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// The equivalence layer: fixed-seed fits with the distance table on vs
// off must shadow each other. Both paths consume randomness draw-for-draw
// identically, so the chains stay coupled and can only diverge where
// quantization (|α|·logBinWidth/2 relative error on a pair weight) flips
// an inversion draw. These tests lock the observable consequences:
// near-total top-1 agreement and an α refit within quantization
// tolerance, across structurally different worlds and both edge kernels.

// equivAgreementMin is the required fraction of users whose predicted
// top-1 city is identical under the two paths. Independent chains on the
// same worlds agree only ~94–95% (measured); the coupled fast path must
// do much better — treat a drop below 99% as a decoupling regression
// (RNG consumption or inversion order drifted), not as noise.
const equivAgreementMin = 0.99

// equivAlphaTol bounds |α_table − α_exact| after Gibbs-EM. The refit
// measures exact distances on both paths; the tolerance covers the
// assignment wiggle the weight quantization can induce.
const equivAlphaTol = 0.05

// equivWorlds are the three synthetic regimes the equivalence claim is
// tested on: a sparse following graph (little evidence per user, long
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
// corpus every equivalence fit runs on.
func heldOutCorpus(t *testing.T, wcfg synth.Config) *dataset.Corpus {
	t.Helper()
	d, err := synth.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	folds := dataset.KFold(len(d.Corpus.Users), 5, 99)
	return d.Corpus.WithUsers(d.Corpus.HideLabels(folds[0]))
}

// fitEquivPair runs the same fold/seed fit with the table off and on and
// returns both models.
func fitEquivPair(t *testing.T, wcfg synth.Config, cfg Config) (exact, table *Model, c *dataset.Corpus) {
	t.Helper()
	c = heldOutCorpus(t, wcfg)
	var err error
	cfg.DistTable = DistTableOff
	exact, err = Fit(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DistTable = DistTableOn
	table, err = Fit(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return exact, table, c
}

// top1Agreement is the fraction of users predicting the same top-1 city.
func top1Agreement(exact, table *Model, c *dataset.Corpus) float64 {
	agree := 0
	for u := range c.Users {
		if exact.Home(dataset.UserID(u)) == table.Home(dataset.UserID(u)) {
			agree++
		}
	}
	return float64(agree) / float64(len(c.Users))
}

// TestDistTableEquivalence is the headline property test: on every world
// and for both edge kernels, table-on vs table-off fits with the same
// seed agree on ≥99% of top-1 predictions, and Gibbs-EM refits α to
// within quantization tolerance.
func TestDistTableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence property tests run full fits; skipped in -short")
	}
	for _, kernel := range []struct {
		name    string
		blocked bool
	}{{"per-variable", false}, {"blocked", true}} {
		for _, w := range equivWorlds() {
			t.Run(fmt.Sprintf("%s/%s", kernel.name, w.name), func(t *testing.T) {
				cfg := Config{
					Seed:           7,
					Iterations:     12,
					GibbsEM:        true,
					EMInterval:     4,
					EMPairSample:   30000,
					BlockedSampler: kernel.blocked,
				}
				exact, table, c := fitEquivPair(t, w.cfg, cfg)

				agree := top1Agreement(exact, table, c)
				aE, bE := exact.AlphaBeta()
				aT, bT := table.AlphaBeta()
				t.Logf("top-1 agreement %.4f; alpha exact %.4f table %.4f; beta exact %.5f table %.5f",
					agree, aE, aT, bE, bT)
				if agree < equivAgreementMin {
					t.Errorf("top-1 agreement %.4f < %.2f — table chain decoupled from exact chain", agree, equivAgreementMin)
				}
				if math.Abs(aE-aT) > equivAlphaTol {
					t.Errorf("alpha diverged: exact %.4f vs table %.4f (tol %.2f)", aE, aT, equivAlphaTol)
				}
				enE, tnE := exact.NoiseStats()
				enT, tnT := table.NoiseStats()
				if math.Abs(enE-enT) > 0.02 || math.Abs(tnE-tnT) > 0.02 {
					t.Errorf("noise estimates diverged: exact (%.4f, %.4f) vs table (%.4f, %.4f)", enE, tnE, enT, tnT)
				}
			})
		}
	}
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

// TestDistTableEquivalenceSmoke is the -short leg: one small mixed world,
// per-variable kernel, same assertions.
func TestDistTableEquivalenceSmoke(t *testing.T) {
	cfg := Config{Seed: 7, Iterations: 8, GibbsEM: true, EMInterval: 4, EMPairSample: 20000}
	exact, table, c := fitEquivPair(t, synth.Config{Seed: 104, NumUsers: 250, NumLocations: 100}, cfg)
	agree := top1Agreement(exact, table, c)
	aE, _ := exact.AlphaBeta()
	aT, _ := table.AlphaBeta()
	t.Logf("smoke top-1 agreement %.4f; alpha exact %.4f table %.4f", agree, aE, aT)
	if agree < equivAgreementMin {
		t.Errorf("smoke top-1 agreement %.4f < %.2f", agree, equivAgreementMin)
	}
	if math.Abs(aE-aT) > equivAlphaTol {
		t.Errorf("smoke alpha diverged: exact %.4f vs table %.4f", aE, aT)
	}
}

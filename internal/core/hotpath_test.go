package core

import (
	"testing"

	"mlprofile/internal/synth"
)

// Tests for the DESIGN.md §14 hot-path structures and the wide
// gazetteers of §7: the per-author tweet-draw batch cache, and fits on
// gazetteers far larger than their candidate universe. Each is pinned to
// the fingerprint the fit had when the batch cache and the large-
// gazetteer distance layer still had bit-identical reference paths
// (per-draw gathers, per-lookup distance evaluation) to be checked
// against.

// longRunWorld has few authors with very long tweet runs: the world
// that drives the tweet batch cache's repair edge.
var longRunWorld = synth.Config{Seed: 107, NumUsers: 30, NumLocations: 80, MeanFriends: 4, MeanTweets: 200}

// TestTweetBatchBoundaryInvalidation drives the batching layer's repair
// edge hard: few authors with very long tweet runs, so gathered entries
// live across many draws and the authors' own moves (z moves and ν
// flips) must repair gathered counts mid-run. The fit must reproduce its
// pinned fingerprint, and the stats must prove the edge actually fired
// (reuse without repairs would mean the world was too tame to test
// invalidation).
func TestTweetBatchBoundaryInvalidation(t *testing.T) {
	d, err := synth.Generate(longRunWorld)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 7, Iterations: 6, GibbsEM: true, EMInterval: 3, EMPairSample: 20000}
	m, err := Fit(&d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := m.TweetBatchStats()
	t.Logf("batch stats: %+v", st)
	if st.Hits == 0 {
		t.Error("no batch entry reuse on a long-run tweet world — batching is inert")
	}
	if st.Repairs == 0 {
		t.Error("no in-place repairs — the invalidation edge was never exercised")
	}
	const want = uint64(0x12aab703d18c20d5)
	got := fitFingerprint(m)
	t.Logf("fingerprint: %#x", got)
	if got != want {
		t.Errorf("fingerprint %#x differs from pinned %#x — a repair missed a gathered count", got, want)
	}
}

// TestBatchLayoutShardedIdentity repeats the repair-heavy world under
// the sharded sweep: the fit must reproduce the fingerprint the
// unbatched per-tweet kernel pinned (the overlay reads and barrier folds
// must survive batching), and the batch layer must have reused and
// repaired entries. The subtest keeps the "stale=false" name it had
// beside the retired stale boundary protocol.
func TestBatchLayoutShardedIdentity(t *testing.T) {
	d, err := synth.Generate(longRunWorld)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("stale=false", func(t *testing.T) {
		cfg := Config{Seed: 7, Iterations: 6, Shards: 4, GibbsEM: true, EMInterval: 3, EMPairSample: 20000}
		m, err := Fit(&d.Corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st := m.TweetBatchStats(); st.Hits == 0 || st.Repairs == 0 {
			t.Errorf("sharded batch layer inert: stats %+v", st)
		}
		const want = uint64(0x944ef7daf00d7bfe)
		if got := fitFingerprint(m); got != want {
			t.Errorf("sharded fingerprint %#x differs from the unbatched kernel's %#x", got, want)
		}
	})
}

// wideWorld is the 2,200-city world the pins below were captured on:
// a gazetteer whose candidate universe is a small fraction of it.
func wideWorld(seed int64, users int) synth.Config {
	return synth.Config{Seed: seed, NumUsers: users, NumLocations: 2200}
}

// TestSparseBinsPowRowMatchesFallback is the row-level identity on a
// gazetteer wider than its candidate universe (L = 2,200, the regime
// once served by lazily built sparse pow rows): the universe matrix's
// pow row of every universe city serves exactly the values the same
// table's single lookups compute without matrices — same log-distance,
// same exp — across α-epochs. Row-walking kernels and single lookups
// therefore cannot diverge however they mix.
func TestSparseBinsPowRowMatchesFallback(t *testing.T) {
	d, err := synth.Generate(wideWorld(61, 10))
	if err != nil {
		t.Fatal(err)
	}
	c := &d.Corpus
	L := c.Gaz.Len()
	cand := buildCandidates(c, Config{}.withDefaults(), true, true).cand
	dc := newDistCalc(c.Gaz)
	dt := newDistTable(dc, L, cand, maxDenseUniverse)
	fallback := newDistTable(dc, L, cand, 0)
	_, cities := universeIDs(L, cand)
	for _, alpha := range []float64{-0.55, -0.8} {
		dt.setAlpha(alpha)
		fallback.setAlpha(alpha)
		if active, u, dense := (&Model{dt: dt}).DistTableStatus(); !active || !dense || u >= L {
			t.Fatalf("alpha=%v: status active=%v U=%d dense=%v, want dense over a universe below L=%d", alpha, active, u, dense, L)
		}
		for _, a := range cities {
			prow := dt.row(a)
			if len(prow) != dt.U {
				t.Fatalf("alpha=%v: row(%d) has %d entries, want U=%d", alpha, a, len(prow), dt.U)
			}
			for _, b := range cities {
				if want := fallback.pow(a, b); prow[dt.uid[b]] != want {
					t.Fatalf("alpha=%v: row(%d)[%d] = %v, single lookup = %v", alpha, a, b, prow[dt.uid[b]], want)
				}
			}
		}
	}
}

// TestWideGazFingerprintEquivalence pins the fit at L = 2,200 under the
// sharded sweep, where four shards read the shared universe matrices
// concurrently (the race leg runs it for that). The pin was captured
// from the same Shards=4 fit before the Workers sweep was retired; the
// universe matrices serve exp(α·logMiles) for every pair, exactly what
// single lookups compute. Also locks the reported status: dense matrices
// over a universe smaller than the gazetteer.
func TestWideGazFingerprintEquivalence(t *testing.T) {
	d, err := synth.Generate(wideWorld(105, 150))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 7, Iterations: 4, Shards: 4, GibbsEM: true, EMInterval: 2, EMPairSample: 20000}
	m, err := Fit(&d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if active, u, dense := m.DistTableStatus(); !active || !dense || u >= d.Corpus.Gaz.Len() {
		t.Errorf("DistTableStatus active=%v U=%d dense=%v, want dense over a universe below L=%d", active, u, dense, d.Corpus.Gaz.Len())
	}
	const want = uint64(0xc9d3af548406444e)
	got := fitFingerprint(m)
	t.Logf("fingerprint: %#x", got)
	if got != want {
		t.Errorf("wide-gazetteer fingerprint %#x differs from pinned %#x", got, want)
	}
}

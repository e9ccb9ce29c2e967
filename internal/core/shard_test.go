package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// TestShardPlanPartition: the shard plan must partition users, edges and
// tweets consistently — intra edges have both endpoints on the owner
// shard, every edge is intra or boundary exactly once, the boundary
// coloring is a per-class matching covering exactly the cross-shard
// edges, and tweets follow their author's shard.
func TestShardPlanPartition(t *testing.T) {
	d := testWorld(t, 2)
	c := &d.Corpus
	const shards = 4
	p := buildShardPlan(c, shards, true, true)

	for u := range c.Users {
		if want := int32(dataset.ShardOf(dataset.UserID(u), shards)); p.shardOf[u] != want {
			t.Fatalf("user %d: shardOf %d, want %d", u, p.shardOf[u], want)
		}
	}

	intraBoundary := make([]int, len(c.Edges))
	for s, list := range p.intra {
		for _, e := range list {
			intraBoundary[e]++
			edge := c.Edges[e]
			if p.shardOf[edge.From] != int32(s) || p.shardOf[edge.To] != int32(s) {
				t.Fatalf("intra edge %d of shard %d crosses shards", e, s)
			}
		}
	}
	for _, e := range p.boundary {
		intraBoundary[e]++
		edge := c.Edges[e]
		if p.shardOf[edge.From] == p.shardOf[edge.To] {
			t.Fatalf("boundary edge %d does not cross shards", e)
		}
	}
	for e, n := range intraBoundary {
		if n != 1 {
			t.Fatalf("edge %d appears %d times across intra+boundary", e, n)
		}
	}

	seenClass := map[int32]bool{}
	for ci, class := range p.bclasses {
		touched := map[dataset.UserID]bool{}
		for _, e := range class {
			if seenClass[e] {
				t.Fatalf("boundary edge %d in two classes", e)
			}
			seenClass[e] = true
			edge := c.Edges[e]
			if touched[edge.From] || touched[edge.To] {
				t.Fatalf("boundary class %d: two edges share a user", ci)
			}
			touched[edge.From] = true
			touched[edge.To] = true
		}
	}
	if len(seenClass) != len(p.boundary) {
		t.Fatalf("boundary classes cover %d of %d boundary edges", len(seenClass), len(p.boundary))
	}
	if len(p.boundary) == 0 {
		t.Fatal("test world produced no boundary edges; partition not exercised")
	}

	seenTweet := make([]bool, len(c.Tweets))
	for s, shard := range p.tweets {
		for _, k := range shard {
			if seenTweet[k] {
				t.Fatalf("tweet %d in two shards", k)
			}
			seenTweet[k] = true
			if p.shardOf[c.Tweets[k].User] != int32(s) {
				t.Fatalf("tweet %d on shard %d but author lives on %d", k, s, p.shardOf[c.Tweets[k].User])
			}
		}
	}
	for k, ok := range seenTweet {
		if !ok {
			t.Fatalf("tweet %d missing from plan", k)
		}
	}
}

// TestShardedDeterministic: the sharded sampler must be fully
// reproducible for a fixed (Seed, Shards) pair — the partition is static
// and every shard stream is seeded from (Seed, sweep, shard).
func TestShardedDeterministic(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenCfg()
	cfg.Shards = 4
	m1, err := Fit(&d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(&d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f1, f2 := fitFingerprint(m1), fitFingerprint(m2); f1 != f2 {
		t.Errorf("Shards=4 fingerprints differ across identical runs: %#x vs %#x", f1, f2)
	}
}

// goldenSharded pins the Shards=4 chain on the golden world: any change
// to the shard partition, the phase order, the boundary classes,
// per-shard RNG streams, or the tweet batch cache under per-shard
// overlays shows up here. The count invariants — the overlays' fold and
// reset included — are checked after every sweep on the way. The cell
// keeps the "/sync" suffix it had beside the retired stale boundary
// protocol.
var goldenSharded = []struct {
	name        string
	fingerprint uint64
}{
	{"shards=4/sync", 0x71f6fd6f14d1c015},
}

func TestShardedGoldenPins(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenSharded {
		t.Run(g.name, func(t *testing.T) {
			cfg := goldenCfg()
			cfg.Shards = 4
			cfg.OnIteration = func(_ int, m *Model) { checkInvariants(t, m) }
			m, err := Fit(&d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := fitFingerprint(m)
			t.Logf("fingerprint: %#x", got)
			if got != g.fingerprint {
				t.Errorf("%s fingerprint %#x differs from golden %#x", g.name, got, g.fingerprint)
			}
			if st := m.TweetBatchStats(); st.Built == 0 || st.Hits == 0 {
				t.Errorf("sharded batch layer inactive: stats %+v", st)
			}
		})
	}
}

// TestShards1GoldenMatrix is the satellite lock: an explicit Shards=1
// must reproduce the golden fingerprint matrix cell-for-cell — Shards=1
// is defined as the exact pre-sharding chain, not merely an equivalent
// one.
func TestShards1GoldenMatrix(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenMatrix {
		t.Run(g.name+goldenChainName+"/shards=1", func(t *testing.T) {
			cfg := goldenCfg()
			cfg.Shards = 1
			m, err := Fit(&d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fitFingerprint(m); got != g.fingerprint {
				t.Errorf("Shards=1 %s fingerprint %#x differs from golden %#x", g.name, got, g.fingerprint)
			}
		})
	}
}

// TestShards1StreamedWorldGolden: loading the golden world back through
// the in-memory wrapper and the streaming loader must yield the same
// corpus, and a Shards=1 fit on either must be bit-identical — the
// ingestion path must never perturb the chain.
func TestShards1StreamedWorldGolden(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "golden")
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	mem, err := dataset.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := dataset.LoadStreamed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dataset.Fingerprint(&mem.Corpus) != dataset.Fingerprint(&streamed.Corpus) {
		t.Fatal("streamed corpus fingerprint differs from in-memory load")
	}
	cfg := goldenCfg()
	cfg.Shards = 1
	m1, err := Fit(&mem.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(&streamed.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f1, f2 := fitFingerprint(m1), fitFingerprint(m2); f1 != f2 {
		t.Errorf("streamed-load fit fingerprint %#x differs from in-memory %#x", f2, f1)
	}
}

// TestShardedCountInvariants: after a sharded fit the collapsed counts
// must be exactly consistent — the shard phases, the venue-delta fold,
// and the boundary phase may not lose or double a single ±1.
func TestShardedCountInvariants(t *testing.T) {
	d := testWorld(t, 2)
	for name, cfg := range map[string]Config{
		"sync":    {Seed: 5, Iterations: 6, Shards: 4},
		"blocked": {Seed: 5, Iterations: 6, Shards: 4, BlockedSampler: true},
	} {
		t.Run(name, func(t *testing.T) {
			m, _ := fitFold(t, d, cfg)
			checkInvariants(t, m)
		})
	}
}

// TestShardedMatchesSequentialQuality: a sharded chain differs from the
// sequential one but must land at the same quality and noise estimates.
func TestShardedMatchesSequentialQuality(t *testing.T) {
	skipIfShort(t)
	d := testWorld(t, 4)
	seq, test := fitFold(t, d, Config{Seed: 19, Iterations: 10})
	sh, _ := fitFold(t, d, Config{Seed: 19, Iterations: 10, Shards: 4})
	accSeq := accAt100(d, seq, test)
	accSh := accAt100(d, sh, test)
	t.Logf("sequential=%.3f sharded=%.3f", accSeq, accSh)
	if math.Abs(accSeq-accSh) > 0.12 {
		t.Errorf("sharded sampler diverged: seq=%.3f sharded=%.3f", accSeq, accSh)
	}
	enS, tnS := seq.NoiseStats()
	enH, tnH := sh.NoiseStats()
	if math.Abs(enS-enH) > 0.1 || math.Abs(tnS-tnH) > 0.1 {
		t.Errorf("noise estimates diverged: seq=(%.3f, %.3f) sharded=(%.3f, %.3f)", enS, tnS, enH, tnH)
	}
}

// TestShardedVariants: single-observation-type variants must run under
// sharding — FollowingOnly exercises a nil tweet plan, TweetingOnly a
// nil edge plan (and no boundary machinery at all).
func TestShardedVariants(t *testing.T) {
	d := testWorld(t, 1)
	for _, v := range []Variant{FollowingOnly, TweetingOnly} {
		m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 3, Shards: 3, Variant: v})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if m.Iterations() != 3 {
			t.Errorf("%v: ran %d iterations", v, m.Iterations())
		}
	}
	// Edges-only corpus under the Full variant: a tweetless corpus is
	// legal, and the sweep must skip the tweet work and the fold instead
	// of indexing an empty tweet plan.
	c := d.Corpus
	c.Tweets = nil
	if _, err := Fit(&c, Config{Seed: 3, Iterations: 3, Shards: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestShardsValidation: negative shard counts are rejected; zero means
// single-chain; and no count may outgrow the 16-bit shard field of the
// per-shard RNG stream key, where shard 65,536+r would draw shard r's
// stream of the same sweep or the next. The limit is checked on
// validate alone, which runs before any plan or goroutine exists.
func TestShardsValidation(t *testing.T) {
	d := testWorld(t, 1)
	if _, err := Fit(&d.Corpus, Config{Iterations: 1, Shards: -2}); err == nil {
		t.Error("negative Shards accepted")
	}
	if err := (Config{Shards: 1 << 16}).withDefaults().validate(); err != nil {
		t.Errorf("Shards=65536 rejected: %v", err)
	}
	err := (Config{Shards: 1<<16 + 1}).withDefaults().validate()
	if err == nil || !strings.Contains(err.Error(), "65536") {
		t.Errorf("Shards=65537: error %v, want one naming the limit 65536", err)
	}
	m, err := Fit(&d.Corpus, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().Shards != 1 {
		t.Errorf("defaulted Shards = %d", m.Config().Shards)
	}
}

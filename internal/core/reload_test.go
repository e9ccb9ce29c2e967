package core

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// TestReloadSnapshotSharesCandidacy: ReloadSnapshot must return the
// model a fresh LoadSnapshot of the same file returns — the same
// re-encoded bytes and every readout bit for bit — and must share prev's
// candidacy exactly when prev was loaded over a corpus with the same
// fingerprint under the same candidacy key. It rebuilds for a fitted
// prev, for a changed variant or MaxCandidates, and for another world.
func TestReloadSnapshotSharesCandidacy(t *testing.T) {
	world := func(seed int64) *dataset.Corpus {
		d, err := synth.Generate(synth.Config{Seed: seed, NumUsers: 150, NumLocations: 60})
		if err != nil {
			t.Fatal(err)
		}
		return &d.Corpus
	}
	c, other := world(11), world(12)
	dir := t.TempDir()
	fits := map[string]*Model{}
	save := func(name string, c *dataset.Corpus, cfg Config) string {
		t.Helper()
		m, err := Fit(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".mlp")
		if err := m.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
		fits[path] = m
		return path
	}
	mlp := save("mlp", c, Config{Seed: 3, Iterations: 3})
	mlpU := save("mlp_u", c, Config{Seed: 3, Iterations: 3, Variant: FollowingOnly})
	mlpC := save("mlp_c", c, Config{Seed: 3, Iterations: 3, Variant: TweetingOnly})
	reseeded := save("seed4", c, Config{Seed: 4, Iterations: 3})
	capped := save("cap8", c, Config{Seed: 3, Iterations: 3, MaxCandidates: 8})
	otherWorld := save("other", other, Config{Seed: 3, Iterations: 3})

	load := func(c *dataset.Corpus, path string) *Model {
		t.Helper()
		m, err := LoadSnapshot(c, path)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name   string
		prev   *Model
		c      *dataset.Corpus
		path   string
		shared bool
	}{
		{"MLP", load(c, mlp), c, mlp, true},
		{"MLP_U", load(c, mlpU), c, mlpU, true},
		{"MLP_C", load(c, mlpC), c, mlpC, true},
		{"other fit of the same world", load(c, mlp), c, reseeded, true},
		{"equal corpus at another address", load(c, mlp), c.WithUsers(slices.Clone(c.Users)), mlp, true},
		{"MLP after MLP_U", load(c, mlpU), c, mlp, false},
		{"MLP_C after MLP", load(c, mlp), c, mlpC, false},
		{"different MaxCandidates", load(c, mlp), c, capped, false},
		{"fitted prev", fits[mlp], c, mlp, false},
		{"another world", load(c, mlp), other, otherWorld, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReloadSnapshot(tc.c, tc.path, tc.prev)
			if err != nil {
				t.Fatal(err)
			}
			if shared := got.cands == tc.prev.cands; shared != tc.shared {
				t.Fatalf("candidacy shared = %v, want %v", shared, tc.shared)
			}
			fresh := load(tc.c, tc.path)
			var a, b bytes.Buffer
			if err := fresh.EncodeSnapshot(&a); err != nil {
				t.Fatal(err)
			}
			if err := got.EncodeSnapshot(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("reloaded model re-encodes to other bytes than a fresh load")
			}
			requireSameCandidates(t, got.cands, fresh.cands)
			requireReadEquality(t, fresh, got, tc.c)
			if got.world == nil || *got.world != dataset.Fingerprint(tc.c) {
				t.Error("the load did not record the fingerprint it verified")
			}
		})
	}
	if fits[mlp].world != nil {
		t.Error("a fit recorded a world fingerprint")
	}

	// A chain of reloads keeps sharing the first load's candidacy.
	first := load(c, mlp)
	prev := first
	for range 3 {
		next, err := ReloadSnapshot(c, reseeded, prev)
		if err != nil {
			t.Fatal(err)
		}
		if next.cands != first.cands {
			t.Fatal("a later reload rebuilt the shared candidacy")
		}
		prev = next
	}

	// A directory snapshot loads as LoadSnapshot loads it: no sharing.
	sharded, err := Fit(c, Config{Seed: 3, Iterations: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(dir, "snapdir")
	if err := sharded.SaveShardedSnapshot(snapDir); err != nil {
		t.Fatal(err)
	}
	fromDir, err := ReloadSnapshot(c, snapDir, first)
	if err != nil {
		t.Fatal(err)
	}
	if fromDir.cands == first.cands {
		t.Error("a directory reload shared candidacy")
	}
	requireReadEquality(t, sharded, fromDir, c)
}

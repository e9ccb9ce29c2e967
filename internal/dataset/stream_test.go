package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlprofile/internal/gazetteer"
)

// hostileWorld draws one random dataset from the hostile generators of
// io_property_test.go: cross-state duplicate city names, framing-hostile
// handles, empty registered strings, name-ambiguous tweets.
func hostileWorld(t *testing.T, rng *rand.Rand) *Dataset {
	t.Helper()
	gaz := hostileGazetteer(t)
	vv := gazetteer.BuildVenueVocab(gaz)
	L := gaz.Len()
	n := 2 + rng.Intn(6)
	d := &Dataset{Corpus: Corpus{Gaz: gaz, Venues: vv}}
	for u := 0; u < n; u++ {
		home := NoCity
		if rng.Intn(2) == 0 {
			home = gazetteer.CityID(rng.Intn(L))
		}
		d.Corpus.Users = append(d.Corpus.Users, User{
			ID:         UserID(u),
			Handle:     hostileHandles[rng.Intn(len(hostileHandles))],
			Registered: hostileRegistered[rng.Intn(len(hostileRegistered))],
			Home:       home,
		})
	}
	for e := 0; e < rng.Intn(8); e++ {
		from := UserID(rng.Intn(n))
		to := UserID(rng.Intn(n))
		if from == to {
			continue
		}
		d.Corpus.Edges = append(d.Corpus.Edges, FollowEdge{From: from, To: to})
	}
	for k := 0; k < rng.Intn(10); k++ {
		d.Corpus.Tweets = append(d.Corpus.Tweets, TweetRel{
			User:  UserID(rng.Intn(n)),
			Venue: gazetteer.VenueID(rng.Intn(vv.Len())),
		})
	}
	return d
}

// TestStreamMatchesLoadHostileWorlds is the load-path equivalence
// property: for hostile random worlds, the in-memory Load and the
// streaming LoadStreamed must produce corpora with identical
// fingerprints.
func TestStreamMatchesLoadHostileWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		d := hostileWorld(t, rng)
		dir := t.TempDir()
		if err := d.Save(dir); err != nil {
			t.Fatalf("trial %d: save: %v", trial, err)
		}

		base, err := Load(dir)
		if err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		want := Fingerprint(&base.Corpus)

		streamed, err := LoadStreamed(dir)
		if err != nil {
			t.Fatalf("trial %d: streamed load: %v", trial, err)
		}
		if got := Fingerprint(&streamed.Corpus); got != want {
			t.Fatalf("trial %d: streamed fingerprint differs from Load", trial)
		}
		// LoadStreamed's counting pass must have sized every table exactly.
		if cap(streamed.Corpus.Users) != len(streamed.Corpus.Users) ||
			cap(streamed.Corpus.Edges) != len(streamed.Corpus.Edges) ||
			cap(streamed.Corpus.Tweets) != len(streamed.Corpus.Tweets) {
			t.Errorf("trial %d: streamed load over-allocated (caps %d/%d/%d vs lens %d/%d/%d)",
				trial, cap(streamed.Corpus.Users), cap(streamed.Corpus.Edges), cap(streamed.Corpus.Tweets),
				len(streamed.Corpus.Users), len(streamed.Corpus.Edges), len(streamed.Corpus.Tweets))
		}
	}
}

// TestShardOfStable pins the assignment function: full range coverage,
// determinism, and the exact values the sharded snapshot format depends
// on (a changed hash would orphan every sharded snapshot on disk).
func TestShardOfStable(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7} {
		seen := make(map[int]bool)
		for u := 0; u < 1000; u++ {
			s := ShardOf(UserID(u), shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", u, shards, s)
			}
			seen[s] = true
			if again := ShardOf(UserID(u), shards); again != s {
				t.Fatalf("ShardOf(%d, %d) unstable: %d then %d", u, shards, s, again)
			}
		}
		if len(seen) != shards {
			t.Errorf("ShardOf covers %d of %d shards over 1000 users", len(seen), shards)
		}
	}
	// Golden values: these must never change (see SaveShardedSnapshot).
	golden := map[UserID]int{0: 0, 1: 1, 2: 2, 3: 0, 100: 0, 12345: 1}
	for u, want := range golden {
		if got := ShardOf(u, 4); got != want {
			t.Errorf("ShardOf(%d, 4) = %d, want %d", u, got, want)
		}
	}
}

// TestLoadLongLine: a row far beyond bufio.Scanner's default 64 KiB token
// limit must load intact — the regression the explicit buffer cap exists
// for.
func TestLoadLongLine(t *testing.T) {
	d := tinyDataset(t)
	d.Truth = nil
	longHandle := strings.Repeat("x", 100*1024)
	d.Corpus.Users[2].Handle = longHandle
	dir := t.TempDir()
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(string) (*Dataset, error){
		"load": Load, "streamed": LoadStreamed,
	} {
		got, err := load(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Corpus.Users[2].Handle != longHandle {
			t.Errorf("%s: long handle truncated to %d bytes", name, len(got.Corpus.Users[2].Handle))
		}
	}
}

// TestLoadLineTooLong: a row beyond the explicit cap must fail with the
// named ErrLineTooLong carrying file context, not bufio's bare ErrTooLong.
func TestLoadLineTooLong(t *testing.T) {
	d := tinyDataset(t)
	d.Truth = nil
	dir := t.TempDir()
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, usersFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "3\t%s\t-\t\n", strings.Repeat("y", maxLineBytes))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(string) (*Dataset, error){
		"load": Load, "streamed": LoadStreamed,
	} {
		_, err := load(dir)
		if !errors.Is(err, ErrLineTooLong) {
			t.Errorf("%s: got %v, want ErrLineTooLong", name, err)
		}
		if err != nil && !strings.Contains(err.Error(), usersFile) {
			t.Errorf("%s: error lacks file context: %v", name, err)
		}
	}
}

// TestLoadTruthReadErrorSurfaces: an unreadable truth.json must fail the
// load with file context — only a cleanly absent file means "no truth".
func TestLoadTruthReadErrorSurfaces(t *testing.T) {
	d := tinyDataset(t)
	d.Truth = nil
	dir := t.TempDir()
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}
	// A directory named truth.json: os.ReadFile fails with a non-NotExist
	// error, which must surface instead of silently loading truthless.
	if err := os.Mkdir(filepath.Join(dir, truthFile), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	if err == nil {
		t.Fatal("load with unreadable truth.json succeeded")
	}
	if !strings.Contains(err.Error(), truthFile) {
		t.Errorf("error lacks truth.json context: %v", err)
	}
}

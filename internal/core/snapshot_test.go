package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/synth"
)

// requireReadEquality asserts the loaded model reproduces every readout of
// the fitted model bit for bit: full profiles, venue probabilities, MAP
// and sampled edge explanations, tweet explanations, noise rates, and the
// refined (α, β).
func requireReadEquality(t *testing.T, fitted, loaded *Model, c *dataset.Corpus) {
	t.Helper()
	if a, b := fitFingerprint(fitted), fitFingerprint(loaded); a != b {
		t.Fatalf("profile fingerprint diverged: fitted %#x loaded %#x", a, b)
	}
	for u := range c.Users {
		want := fitted.Profile(dataset.UserID(u))
		got := loaded.Profile(dataset.UserID(u))
		if len(want) != len(got) {
			t.Fatalf("user %d: profile length %d vs %d", u, len(want), len(got))
		}
		for i := range want {
			if want[i].City != got[i].City || math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
				t.Fatalf("user %d entry %d: %v vs %v", u, i, want[i], got[i])
			}
		}
	}
	for v := 0; v < c.Venues.Len(); v++ {
		for _, l := range c.Venues.Venue(gazetteer.VenueID(v)).Locations {
			a := fitted.VenueProbability(l, gazetteer.VenueID(v))
			b := loaded.VenueProbability(l, gazetteer.VenueID(v))
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("psi(%d, %d): %v vs %v", l, v, a, b)
			}
		}
	}
	for s := range c.Edges {
		wantExp, wantOK := fitted.MAPExplainEdge(s)
		gotExp, gotOK := loaded.MAPExplainEdge(s)
		if wantOK != gotOK || wantExp != gotExp {
			t.Fatalf("edge %d MAP explanation: (%v, %v) vs (%v, %v)", s, wantExp, wantOK, gotExp, gotOK)
		}
		wantExp, wantOK = fitted.ExplainEdge(s)
		gotExp, gotOK = loaded.ExplainEdge(s)
		if wantOK != gotOK || wantExp != gotExp {
			t.Fatalf("edge %d sampled explanation: (%v, %v) vs (%v, %v)", s, wantExp, wantOK, gotExp, gotOK)
		}
	}
	for k := range c.Tweets {
		want, wantOK := fitted.ExplainTweet(k)
		got, gotOK := loaded.ExplainTweet(k)
		if wantOK != gotOK || want != got {
			t.Fatalf("tweet %d explanation: (%v, %v) vs (%v, %v)", k, want, wantOK, got, gotOK)
		}
	}
	ea, ta := fitted.NoiseStats()
	eb, tb := loaded.NoiseStats()
	if ea != eb || ta != tb {
		t.Fatalf("noise stats: (%v, %v) vs (%v, %v)", ea, ta, eb, tb)
	}
	aa, ab := fitted.AlphaBeta()
	ba, bb := loaded.AlphaBeta()
	if math.Float64bits(aa) != math.Float64bits(ba) || math.Float64bits(ab) != math.Float64bits(bb) {
		t.Fatalf("alpha/beta: (%v, %v) vs (%v, %v)", aa, ab, ba, bb)
	}
	if fitted.Iterations() != loaded.Iterations() {
		t.Fatalf("iterations: %d vs %d", fitted.Iterations(), loaded.Iterations())
	}
}

// Byte offsets into a snapshot file, whole-model or shard slice. The
// config section follows the magic, the 16-byte header (version, flags,
// shard index, shard count) and the world fingerprint. In it, the
// retired Workers slot follows Seed, Variant and Iterations (8 bytes
// each). The retired venue-count layout and draw pipeline slots follow
// the first 14 eight-byte fields (Seed … MaxVenueSenses), GibbsEM
// (1 byte), EMInterval and EMPairSample (8 each), BlockedSampler (1) and
// DistTable (8). After them come DisableNoiseMixture,
// DisableSupervision and AllLocationCandidates (1 byte each) and Shards
// (8), then the retired StaleBoundary flag (1) — the config section's
// last byte, so the refined α follows it.
var (
	configOffset        = len(snapshotMagic) + 16 + int(dataset.NumFingerprintSections)*sha256.Size
	workersSlotOffset   = configOffset + 3*8
	retiredSlotsOffset  = configOffset + 14*8 + 1 + 2*8 + 1 + 8
	staleSlotOffset     = retiredSlotsOffset + 2*8 + 3 + 8
	snapshotAlphaOffset = staleSlotOffset + 1
)

// retiredSlots holds the four retired config slots: the venue-count
// layout (psi=venue 1, psi=map 2), the draw pipeline (draw=fused 1,
// draw=scan 2), the Workers sweep's goroutine count and the
// StaleBoundary flag. None of those knobs changed what a snapshot
// describes, so a snapshot carrying any values an older encoder wrote
// must load and read out exactly like the one written now.
type retiredSlots struct {
	psi, draw, workers uint64
	stale              bool
}

// writtenSlots is what encodeConfig writes into the retired slots.
var writtenSlots = retiredSlots{psi: retiredConfigSlot, draw: retiredConfigSlot, workers: retiredConfigSlot}

// retiredSlotCells are the layout, draw and StaleBoundary values an
// older encoder could write; TestSnapshotRoundTripMatrix crosses them
// with the Workers values 1 and 4.
var retiredSlotCells = []struct {
	name  string
	slots retiredSlots
}{
	{"psi=map/draw=scan", retiredSlots{psi: 2, draw: 2}},
	{"psi=map/draw=fused", retiredSlots{psi: 2, draw: 1}},
	{"psi=venue/draw=scan", retiredSlots{psi: 1, draw: 2}},
	{"psi=venue/draw=fused", retiredSlots{psi: 1, draw: 1}},
	{"psi=venue/draw=fused/staleboundary=true", retiredSlots{psi: 1, draw: 1, stale: true}},
}

// withRetiredSlots returns a copy of the snapshot file raw with the
// retired slots set to slots and the trailing checksum recomputed: the
// bytes an older encoder wrote for the same fit with those knob values.
func withRetiredSlots(t *testing.T, raw []byte, slots retiredSlots) []byte {
	t.Helper()
	out := bytes.Clone(raw)
	for _, f := range []struct {
		off  int
		v    uint64
		want uint64
	}{
		{workersSlotOffset, slots.workers, writtenSlots.workers},
		{retiredSlotsOffset, slots.psi, writtenSlots.psi},
		{retiredSlotsOffset + 8, slots.draw, writtenSlots.draw},
	} {
		if got := binary.LittleEndian.Uint64(out[f.off:]); got != f.want {
			t.Fatalf("retired slot at byte %d holds %d, want %d", f.off, got, f.want)
		}
		binary.LittleEndian.PutUint64(out[f.off:], f.v)
	}
	if out[staleSlotOffset] != 0 {
		t.Fatalf("retired StaleBoundary slot at byte %d holds %d, want 0", staleSlotOffset, out[staleSlotOffset])
	}
	if slots.stale {
		out[staleSlotOffset] = 1
	}
	sum := sha256.Sum256(out[:len(out)-sha256.Size])
	copy(out[len(out)-sha256.Size:], sum[:])
	return out
}

// withAlpha returns a copy of the snapshot file raw with α replaced and
// the trailing checksum recomputed, as a forged file would carry it.
func withAlpha(raw []byte, alpha float64) []byte {
	out := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(out[snapshotAlphaOffset:], math.Float64bits(alpha))
	sum := sha256.Sum256(out[:len(out)-sha256.Size])
	copy(out[len(out)-sha256.Size:], sum[:])
	return out
}

// TestSnapshotRejectsBadAlpha: a snapshot whose α is positive, infinite
// or NaN — checksums recomputed, so only the value is wrong — must be
// refused with ErrSnapshotAlpha by the whole-model decoder and by the
// sharded loaders, since MAPExplainEdge's pruning relies on α ≤ 0.
func TestSnapshotRejectsBadAlpha(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 150, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	alpha, _ := m.AlphaBeta()
	if got := math.Float64frombits(binary.LittleEndian.Uint64(raw[snapshotAlphaOffset:])); got != alpha {
		t.Fatalf("α at byte %d reads %v, want the fitted %v", snapshotAlphaOffset, got, alpha)
	}
	if _, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(withAlpha(raw, 0))); err != nil {
		t.Errorf("α = 0 refused: %v", err)
	}

	sharded, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(withAlpha(raw, bad))); !errors.Is(err, ErrSnapshotAlpha) {
			t.Errorf("whole-model snapshot with α=%v: error %v, want ErrSnapshotAlpha", bad, err)
		}
		dir := filepath.Join(t.TempDir(), "snap")
		if err := sharded.SaveShardedSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		rewriteSnapshotDir(t, dir, func(data []byte) []byte { return withAlpha(data, bad) })
		if _, err := LoadSnapshotShard(&d.Corpus, dir, 1); !errors.Is(err, ErrSnapshotAlpha) {
			t.Errorf("shard slice with α=%v: error %v, want ErrSnapshotAlpha", bad, err)
		}
		if _, err := LoadSnapshot(&d.Corpus, dir); !errors.Is(err, ErrSnapshotAlpha) {
			t.Errorf("sharded directory with α=%v: error %v, want ErrSnapshotAlpha", bad, err)
		}
	}
}

// TestSnapshotRoundTripMatrix wires the snapshot round trip into the
// determinism matrix: under both DistTable cells of the golden matrix,
// and for every retired-slot combination an older encoder could have
// written — the Workers slot at 1 and 4 (the outer cells' "workers=N"),
// crossed with the layout, draw and StaleBoundary cells — encode →
// decode must reproduce every readout bit for bit.
func TestSnapshotRoundTripMatrix(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenMatrix {
		cfg := goldenCfg()
		cfg.DistTable = g.dist
		m, err := Fit(&d.Corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.EncodeSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []uint64{1, 4} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, g.dist), func(t *testing.T) {
				for _, s := range retiredSlotCells {
					t.Run(s.name, func(t *testing.T) {
						slots := s.slots
						slots.workers = workers
						raw := withRetiredSlots(t, buf.Bytes(), slots)
						loaded, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(raw))
						if err != nil {
							t.Fatal(err)
						}
						requireReadEquality(t, m, loaded, &d.Corpus)
					})
				}
			})
		}
	}
}

// TestSnapshotEncodingDeterministic: the same fitted model must serialize
// to identical bytes (the venue triples are emitted sorted, not in the
// store rows' internal order).
func TestSnapshotEncodingDeterministic(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := m.EncodeSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.EncodeSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same model differ")
	}
}

// TestSnapshotSaveLoadFile exercises the atomic file path.
func TestSnapshotSaveLoadFile(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 120, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.mlp"
	if err := m.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&d.Corpus, path)
	if err != nil {
		t.Fatal(err)
	}
	requireReadEquality(t, m, loaded, &d.Corpus)
}

// TestSnapshotRejectsMismatchedWorld: loading against a world that differs
// in any fingerprinted section fails with an error naming the section.
func TestSnapshotRejectsMismatchedWorld(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 120, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// A different gazetteer entirely.
	other, err := synth.Generate(synth.Config{Seed: 12, NumUsers: 120, NumLocations: 61})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(&other.Corpus, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading against a different world succeeded")
	} else if !strings.Contains(err.Error(), "different world") {
		t.Errorf("mismatch error %q does not name the cause", err)
	}

	// Same gazetteer, one edge removed: the edge section must catch it.
	// (DecodeSnapshot only sees the corpus, so truth stays untouched.)
	trimmed := d.Corpus
	trimmed.Edges = trimmed.Edges[:len(trimmed.Edges)-1]
	if _, err := DecodeSnapshot(&trimmed, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading against an edited edge list succeeded")
	} else if !strings.Contains(err.Error(), "following relationships") {
		t.Errorf("edge mismatch error %q does not name the section", err)
	}

	// One user's home label flipped.
	relabeled := d.Corpus
	relabeled.Users = append([]dataset.User(nil), d.Corpus.Users...)
	for i := range relabeled.Users {
		if h := relabeled.Users[i].Home; h != dataset.NoCity {
			relabeled.Users[i].Home = (h + 1) % gazetteer.CityID(d.Corpus.Gaz.Len())
			break
		}
	}
	if _, err := DecodeSnapshot(&relabeled, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading against edited user labels succeeded")
	} else if !strings.Contains(err.Error(), "user labels") {
		t.Errorf("label mismatch error %q does not name the section", err)
	}
}

// TestSnapshotRejectsCorruption: truncation and bit flips fail the
// checksum (or magic) before any state is rebuilt.
func TestSnapshotRejectsCorruption(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 120, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for _, cut := range []int{len(raw) - 1, len(raw) / 2, 40, 4} {
		if _, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation to %d bytes loaded successfully", cut)
		}
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(flipped)); err == nil {
		t.Error("bit-flipped snapshot loaded successfully")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption error %q does not mention the checksum", err)
	}

	garbage := []byte("definitely not a snapshot, just some text")
	if _, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(garbage)); err == nil {
		t.Error("garbage loaded successfully")
	}
}

// TestSnapshotVariants covers MLP_U and MLP_C: only the consumed
// observation type's latent state travels, and loads reproduce readouts.
func TestSnapshotVariants(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 21, NumUsers: 120, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{FollowingOnly, TweetingOnly} {
		m, err := Fit(&d.Corpus, Config{Seed: 5, Iterations: 3, Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.EncodeSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		requireReadEquality(t, m, loaded, &d.Corpus)
	}
}

// setDirRetiredSlots rewrites every slice file of a sharded snapshot
// directory through withRetiredSlots and updates the manifest's
// checksums to match.
func setDirRetiredSlots(t *testing.T, dir string, slots retiredSlots) {
	t.Helper()
	rewriteSnapshotDir(t, dir, func(data []byte) []byte { return withRetiredSlots(t, data, slots) })
}

// rewriteSnapshotDir passes every slice file of a sharded snapshot
// directory through edit and updates the manifest's checksums to match.
func rewriteSnapshotDir(t *testing.T, dir string, edit func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, snapshotManifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man snapshotManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	for i, e := range man.Files {
		data, err := os.ReadFile(filepath.Join(dir, e.Name))
		if err != nil {
			t.Fatal(err)
		}
		data = edit(data)
		if err := os.WriteFile(filepath.Join(dir, e.Name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		man.Files[i].SHA256 = hex.EncodeToString(sum[:])
	}
	if raw, err = json.MarshalIndent(&man, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSnapshotRoundTrip: a model fitted with Shards=4 saved as a
// sharded directory and loaded back (via the LoadSnapshot directory
// route) must reproduce every readout bit for bit. The "stale/psi=map"
// cell's slice files carry the retired slots as older encoders wrote
// them for a -staleboundary fit with the map venue-count layout and
// Workers=4; they must load all the same.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenCfg()
	cfg.Shards = 4
	m, err := Fit(&d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		slots retiredSlots
	}{
		{"sync/psi=venue", writtenSlots},
		{"stale/psi=map", retiredSlots{psi: 2, draw: 1, workers: 4, stale: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir() + "/snap"
			if err := m.SaveShardedSnapshot(dir); err != nil {
				t.Fatal(err)
			}
			setDirRetiredSlots(t, dir, mode.slots)
			loaded, err := LoadSnapshot(&d.Corpus, dir)
			if err != nil {
				t.Fatal(err)
			}
			requireReadEquality(t, m, loaded, &d.Corpus)
		})
	}
}

// TestShardedSnapshotRejectsTampering: a sharded directory must refuse
// to load when the manifest hash disagrees, a slice file is missing, a
// byte is flipped, or a slice file is dropped into the whole-model
// loader.
func TestShardedSnapshotRejectsTampering(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 150, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 4, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/snap"
	if err := m.SaveShardedSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&d.Corpus, dir); err != nil {
		t.Fatalf("pristine sharded snapshot failed to load: %v", err)
	}

	shard1 := dir + "/shard-001.mlpsnap"
	raw, err := os.ReadFile(shard1)
	if err != nil {
		t.Fatal(err)
	}

	// A slice file is not a whole-model snapshot.
	if _, err := LoadSnapshot(&d.Corpus, shard1); err == nil {
		t.Error("slice file loaded as a whole-model snapshot")
	} else if !strings.Contains(err.Error(), "directory") {
		t.Errorf("slice-file error %q does not point at the directory", err)
	}

	// Flip one byte: the manifest hash catches it before decoding.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(shard1, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&d.Corpus, dir); err == nil {
		t.Error("bit-flipped shard loaded successfully")
	} else if !strings.Contains(err.Error(), "manifest") {
		t.Errorf("corruption error %q does not mention the manifest", err)
	}

	// Remove the slice file entirely.
	if err := os.Remove(shard1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&d.Corpus, dir); err == nil {
		t.Error("snapshot with a missing shard loaded successfully")
	}
	if err := os.WriteFile(shard1, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Manifest shard count that disagrees with the files.
	manifest := dir + "/manifest.json"
	if err := os.WriteFile(manifest, []byte(`{"version":1,"shard_count":2,"files":[]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&d.Corpus, dir); err == nil {
		t.Error("inconsistent manifest loaded successfully")
	}

	// Unsupported manifest version.
	if err := os.WriteFile(manifest, []byte(`{"version":9,"shard_count":3,"files":[]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&d.Corpus, dir); err == nil {
		t.Error("future-versioned manifest loaded successfully")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("version error %q does not mention the version", err)
	}
}

// TestLoadSnapshotShard: one slice of a sharded snapshot loaded alone
// (the serving tier's partial-backend path) answers every ShardOf-owned
// user's profile bit-identically to the full model, SnapshotShardCount
// reports the manifest's count without decoding slices, and out-of-range
// shard indices are refused.
func TestLoadSnapshotShard(t *testing.T) {
	const shards = 3
	d, err := synth.Generate(synth.Config{Seed: 13, NumUsers: 120, NumLocations: 50})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 7, Iterations: 3, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/snap"
	if err := m.SaveShardedSnapshot(dir); err != nil {
		t.Fatal(err)
	}

	if n, err := SnapshotShardCount(dir); err != nil || n != shards {
		t.Fatalf("SnapshotShardCount = %d, %v; want %d", n, err, shards)
	}

	for s := 0; s < shards; s++ {
		part, err := LoadSnapshotShard(&d.Corpus, dir, s)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		owned := 0
		for u := range d.Corpus.Users {
			if dataset.ShardOf(dataset.UserID(u), shards) != s {
				continue
			}
			owned++
			want := m.Profile(dataset.UserID(u))
			got := part.Profile(dataset.UserID(u))
			if len(want) != len(got) {
				t.Fatalf("shard %d user %d: profile length %d vs %d", s, u, len(want), len(got))
			}
			for i := range want {
				if want[i].City != got[i].City || math.Float64bits(want[i].Weight) != math.Float64bits(got[i].Weight) {
					t.Fatalf("shard %d user %d entry %d: %v vs %v", s, u, i, want[i], got[i])
				}
			}
		}
		if owned == 0 {
			t.Errorf("shard %d owns no users — placement fixture too small", s)
		}
	}

	if _, err := LoadSnapshotShard(&d.Corpus, dir, -1); err == nil {
		t.Error("negative shard index accepted")
	}
	if _, err := LoadSnapshotShard(&d.Corpus, dir, shards); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}

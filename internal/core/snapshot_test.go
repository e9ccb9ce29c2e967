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
	"sync"
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
// each). The retired distance-table slot follows the first 14 eight-byte
// fields (Seed … MaxVenueSenses), GibbsEM (1 byte), EMInterval and
// EMPairSample (8 each) and BlockedSampler (1); the retired venue-count
// layout and draw pipeline slots follow it. After them come DisableNoiseMixture,
// DisableSupervision and AllLocationCandidates (1 byte each) and Shards
// (8), then the retired StaleBoundary flag (1) — the config section's
// last byte, so the refined α follows it.
var (
	configOffset        = len(snapshotMagic) + 16 + int(dataset.NumFingerprintSections)*sha256.Size
	workersSlotOffset   = configOffset + 3*8
	distSlotOffset      = configOffset + 14*8 + 1 + 2*8 + 1
	retiredSlotsOffset  = distSlotOffset + 8
	staleSlotOffset     = retiredSlotsOffset + 2*8 + 3 + 8
	snapshotAlphaOffset = staleSlotOffset + 1
	// Tau follows Seed, Variant, Iterations, the Workers slot, RhoF,
	// RhoT, NoiseBurnIn, Alpha and Beta.
	tauSlotOffset = configOffset + 9*8
)

// retiredSlots holds the five retired config slots: the distance table
// (table 1, exact 2), the venue-count layout (psi=venue 1, psi=map 2),
// the draw pipeline (draw=fused 1, draw=scan 2), the Workers sweep's
// goroutine count and the StaleBoundary flag. None of those knobs
// changed what a snapshot describes, so a snapshot carrying any values
// an older encoder wrote must load and read out exactly like the one
// written now.
type retiredSlots struct {
	dist, psi, draw, workers uint64
	stale                    bool
}

// writtenSlots is what encodeConfig writes into the retired slots.
var writtenSlots = retiredSlots{dist: retiredConfigSlot, psi: retiredConfigSlot, draw: retiredConfigSlot, workers: retiredConfigSlot}

// retiredSlotCells are the layout, draw and StaleBoundary values an
// older encoder could write; TestSnapshotRoundTripMatrix crosses them
// with the Workers values 1 and 4 and the distance-table values 1 and 2.
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
		{distSlotOffset, slots.dist, writtenSlots.dist},
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
	return reseal(out)
}

// withAlpha returns a copy of the snapshot file raw with α replaced and
// the trailing checksum recomputed, as a forged file would carry it.
func withAlpha(raw []byte, alpha float64) []byte {
	out := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(out[snapshotAlphaOffset:], math.Float64bits(alpha))
	return reseal(out)
}

// reseal recomputes, in place, the trailing SHA-256 of the snapshot file
// data over everything before it and returns data. Data shorter than a
// checksum is returned unchanged.
func reseal(data []byte) []byte {
	if len(data) >= sha256.Size {
		sum := sha256.Sum256(data[:len(data)-sha256.Size])
		copy(data[len(data)-sha256.Size:], sum[:])
	}
	return data
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

// TestSnapshotRejectsNonFiniteTau: Config.validate refuses a NaN or
// infinite Tau, which would make every candidate prior NaN, so a
// snapshot whose Tau slot holds one — checksums recomputed — is refused
// as an invalid config naming the field, by the whole-model decoder and
// by the sharded loaders.
func TestSnapshotRejectsNonFiniteTau(t *testing.T) {
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
	if got := math.Float64frombits(binary.LittleEndian.Uint64(raw[tauSlotOffset:])); got != m.Config().Tau {
		t.Fatalf("Tau at byte %d reads %v, want the fitted %v", tauSlotOffset, got, m.Config().Tau)
	}
	withTau := func(data []byte, tau float64) []byte {
		out := bytes.Clone(data)
		binary.LittleEndian.PutUint64(out[tauSlotOffset:], math.Float64bits(tau))
		return reseal(out)
	}
	sharded, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "snapshot config invalid") || !strings.Contains(err.Error(), "Tau") {
			t.Errorf("%s: error %v, want an invalid config naming Tau", what, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(withTau(raw, bad)))
		refused(fmt.Sprintf("whole-model snapshot with Tau=%v", bad), err)
		dir := filepath.Join(t.TempDir(), "snap")
		if err := sharded.SaveShardedSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		rewriteSnapshotDir(t, dir, func(data []byte) []byte { return withTau(data, bad) })
		_, err = LoadSnapshotShard(&d.Corpus, dir, 1)
		refused(fmt.Sprintf("shard slice with Tau=%v", bad), err)
		_, err = LoadSnapshot(&d.Corpus, dir)
		refused(fmt.Sprintf("sharded directory with Tau=%v", bad), err)
	}
}

// withLastVenueCount returns a resealed copy of a whole-model snapshot
// whose last venue-count triple — the last 8 bytes before the trailer —
// holds cnt.
func withLastVenueCount(raw []byte, cnt float64) []byte {
	out := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(out[len(out)-sha256.Size-8:], math.Float64bits(cnt))
	return reseal(out)
}

// TestSnapshotRejectsBadVenueCount: a venue count counts tweets, so the
// decoders accept only integers in [1, len(Tweets)]. +Inf used to pass
// (math.Trunc(+Inf) is +Inf) and made ψ̂ read NaN.
func TestSnapshotRejectsBadVenueCount(t *testing.T) {
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
	if got := math.Float64frombits(binary.LittleEndian.Uint64(raw[len(raw)-sha256.Size-8:])); got < 1 || got != math.Trunc(got) {
		t.Fatalf("last venue count reads %v, want a positive integer", got)
	}
	K := float64(len(d.Corpus.Tweets))
	if _, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(withLastVenueCount(raw, K))); err != nil {
		t.Errorf("a count of len(Tweets) = %v refused: %v", K, err)
	}
	for _, bad := range []float64{math.Inf(1), K + 1, math.NaN(), math.Inf(-1), 0, -1, 1.5} {
		_, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(withLastVenueCount(raw, bad)))
		if err == nil || !strings.Contains(err.Error(), "venue count") {
			t.Errorf("venue count %v: error %v, want a venue count refusal", bad, err)
		}
	}
}

// firstProfileCountOffset is the byte offset of the first ϕ count of a
// snapshot's first profile row — user 0's in a whole-model file, the
// first owned user's in a shard file: α, β and the sweep count, the row
// count, then the row's length.
const firstProfileCountOffset = 3*8 + 4 + 4

// withF64s returns a resealed copy of a snapshot file with the float64s
// at the given byte offsets replaced.
func withF64s(raw []byte, at map[int]float64) []byte {
	out := bytes.Clone(raw)
	for off, v := range at {
		binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
	}
	return reseal(out)
}

// TestSnapshotRejectsBadProfileCount: a fit writes ϕ counts and row
// totals phiSum that are integers in [0, len(Edges)+len(Tweets)], and
// every row's counts sum to its phiSum exactly. A resealed snapshot
// that breaks any of that — a NaN first count used to load and put a
// NaN weight into user 0's profile — is refused with
// ErrSnapshotProfileCounts by the whole-model decoder, and the
// first-count cases by the sharded loaders too. Edits that keep a row
// consistent load.
func TestSnapshotRejectsBadProfileCount(t *testing.T) {
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
	if len(m.phi[0]) < 2 {
		t.Fatalf("user 0 has %d candidates, want at least 2", len(m.phi[0]))
	}
	count0 := snapshotAlphaOffset + firstProfileCountOffset
	// phiSum[0] follows every row (a length and the counts each) and the
	// sums' own length.
	sum0 := snapshotAlphaOffset + 3*8 + 4
	for _, row := range m.phi {
		sum0 += 4 + 8*len(row)
	}
	sum0 += 4
	first, second, total := m.phi[0][0], m.phi[0][1], m.phiSum[0]
	if got := math.Float64frombits(binary.LittleEndian.Uint64(raw[count0:])); got != first {
		t.Fatalf("first count at byte %d reads %v, want %v", count0, got, first)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(raw[sum0:])); got != total {
		t.Fatalf("phiSum[0] at byte %d reads %v, want %v", sum0, got, total)
	}
	most := float64(len(d.Corpus.Edges) + len(d.Corpus.Tweets))
	count1 := count0 + 8
	for _, c := range []struct {
		name string
		at   map[int]float64
		ok   bool
	}{
		{"count+1/phiSum+1", map[int]float64{count0: first + 1, sum0: total + 1}, true},
		{"phiSum=most", map[int]float64{count0: most - total + first, sum0: most}, true},
		{"count=NaN", map[int]float64{count0: math.NaN()}, false},
		{"count=+Inf", map[int]float64{count0: math.Inf(1)}, false},
		{"count=-Inf", map[int]float64{count0: math.Inf(-1)}, false},
		{"count=-1", map[int]float64{count0: -1}, false},
		{"count=-1/sum-kept", map[int]float64{count0: -1, count1: first + second + 1}, false},
		{"count=0.5", map[int]float64{count0: 0.5}, false},
		{"count=most+1", map[int]float64{count0: most + 1, sum0: total - first + most + 1}, false},
		{"count+1", map[int]float64{count0: first + 1}, false},
		{"phiSum>most", map[int]float64{count0: most, count1: most, sum0: total - first - second + 2*most}, false},
		{"phiSum=NaN", map[int]float64{sum0: math.NaN()}, false},
		{"phiSum+0.5", map[int]float64{sum0: total + 0.5}, false},
	} {
		_, err := DecodeSnapshot(&d.Corpus, bytes.NewReader(withF64s(raw, c.at)))
		if c.ok && err != nil {
			t.Errorf("%s: consistent row refused: %v", c.name, err)
		}
		if !c.ok && !errors.Is(err, ErrSnapshotProfileCounts) {
			t.Errorf("%s: error %v, want ErrSnapshotProfileCounts", c.name, err)
		}
	}

	sharded, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(count float64) float64
	}{
		{"NaN", func(float64) float64 { return math.NaN() }},
		{"+Inf", func(float64) float64 { return math.Inf(1) }},
		{"-1", func(float64) float64 { return -1 }},
		{"0.5", func(float64) float64 { return 0.5 }},
		{"most+1", func(float64) float64 { return most + 1 }},
		{"count+1", func(count float64) float64 { return count + 1 }},
	} {
		dir := filepath.Join(t.TempDir(), "snap")
		if err := sharded.SaveShardedSnapshot(dir); err != nil {
			t.Fatal(err)
		}
		rewriteSnapshotDir(t, dir, func(data []byte) []byte {
			count := math.Float64frombits(binary.LittleEndian.Uint64(data[count0:]))
			return withF64s(data, map[int]float64{count0: c.edit(count)})
		})
		if _, err := LoadSnapshotShard(&d.Corpus, dir, 1); !errors.Is(err, ErrSnapshotProfileCounts) {
			t.Errorf("shard slice with first count %s: error %v, want ErrSnapshotProfileCounts", c.name, err)
		}
		if _, err := LoadSnapshot(&d.Corpus, dir); !errors.Is(err, ErrSnapshotProfileCounts) {
			t.Errorf("sharded directory with first count %s: error %v, want ErrSnapshotProfileCounts", c.name, err)
		}
	}
}

// TestSnapshotRoundTripMatrix wires the snapshot round trip into the
// determinism matrix: for the golden fit and every retired-slot
// combination an older encoder could have written — the Workers slot at
// 1 and 4 and the distance-table slot at 1 (table) and 2 (exact), the
// outer cells' "workers=N/dist", crossed with the layout, draw and
// StaleBoundary cells — encode → decode must reproduce every readout bit
// for bit.
func TestSnapshotRoundTripMatrix(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []uint64{1, 4} {
		for _, dist := range []struct {
			name string
			slot uint64
		}{{"table", 1}, {"exact", 2}} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, dist.name), func(t *testing.T) {
				for _, s := range retiredSlotCells {
					t.Run(s.name, func(t *testing.T) {
						slots := s.slots
						slots.workers, slots.dist = workers, dist.slot
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
		{"stale/psi=map", retiredSlots{dist: 2, psi: 2, draw: 1, workers: 4, stale: true}},
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

// loadBench is the snapshot BenchmarkLoadSnapshot reads: a 10,000-user,
// 1,000-city world (the serve-mixed size of bench/) fitted once per
// process with two sweeps, since a load's cost hardly depends on how
// long the chain ran.
var loadBench struct {
	once sync.Once
	c    *dataset.Corpus
	snap []byte
	err  error
}

// loadBenchFile writes loadBench's snapshot into a temporary file,
// fitting it on first use, and returns its path.
func loadBenchFile(b *testing.B) string {
	b.Helper()
	loadBench.once.Do(func() {
		d, err := synth.Generate(synth.Config{Seed: 5, NumUsers: 10000, NumLocations: 1000})
		if err != nil {
			loadBench.err = err
			return
		}
		m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 2})
		if err != nil {
			loadBench.err = err
			return
		}
		var buf bytes.Buffer
		loadBench.err = m.EncodeSnapshot(&buf)
		loadBench.c, loadBench.snap = &d.Corpus, buf.Bytes()
	})
	if loadBench.err != nil {
		b.Fatal(loadBench.err)
	}
	path := filepath.Join(b.TempDir(), "model.mlp")
	if err := os.WriteFile(path, loadBench.snap, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(loadBench.snap)))
	b.ReportAllocs()
	return path
}

// BenchmarkLoadSnapshot times LoadSnapshot of a whole-model file: the
// sized read, the checksum and fingerprint checks, candidacy and the
// decode of the carried state.
func BenchmarkLoadSnapshot(b *testing.B) {
	path := loadBenchFile(b)
	for b.Loop() {
		if _, err := LoadSnapshot(loadBench.c, path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReloadSnapshot times what POST /reload pays on the same
// world: ReloadSnapshot of the file with the model it replaces as prev,
// so every check runs and candidacy is shared instead of rebuilt.
func BenchmarkReloadSnapshot(b *testing.B) {
	path := loadBenchFile(b)
	prev, err := LoadSnapshot(loadBench.c, path)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if prev, err = ReloadSnapshot(loadBench.c, path, prev); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
)

// This file implements the fitted-model snapshot (DESIGN.md §10): a
// versioned binary encoding of everything a fitted Model carries beyond
// what is deterministically rebuildable from the corpus — the collapsed
// profile counts ϕ, the collapsed venue counts φ_{l,v}, the refined
// (α, β), the final latent assignments (µ, x, y, ν, z), and the defaulted
// Config — plus a fingerprint of the world it was fitted against, so a
// snapshot refuses to load over a mismatched gazetteer/vocabulary/corpus.
//
// Everything else (candidacy vectors, priors γ, the random models F_R/T_R,
// the distance table, trigonometry) is rebuilt from the corpus on load via
// the same deterministic code paths Fit uses (a reload may instead share
// the candidacy of the model it replaces; see ReloadSnapshot), so a
// loaded model answers every read — Profile/TopK, VenueProbability,
// MAPExplainEdge, ExplainEdge/ExplainTweet, NoiseStats — bit-for-bit
// identically to the in-process model that wrote the snapshot
// (snapshot_test.go locks this across the determinism matrix).
//
// Loaded models are read-only: no sweep state (RNG streams, scratch
// arenas, the ϕ+γ and ψ̂-reciprocal mirrors) is reconstructed, and none
// of the read paths touch it. Continuing inference from a snapshot is
// out of scope.

// snapshotMagic opens every snapshot file. The trailing newline makes an
// accidental text-mode corruption detectable.
var snapshotMagic = [8]byte{'M', 'L', 'P', 'S', 'N', 'A', 'P', '\n'}

// SnapshotVersion is the current encoding version. Decoders reject
// versions they do not know. Version 2 moved the world fingerprint to
// the shared dataset.Fingerprint encoding, added the shard header
// (flags, shard index, shard count) and appended Shards and the since
// retired StaleBoundary flag to the config section.
const SnapshotVersion uint32 = 2

// ErrSnapshotAlpha refuses a snapshot whose power-law exponent α is
// NaN, infinite or positive. A fit keeps α ≤ 0 (distance decay), and
// MAPExplainEdge's pruning relies on d^α ≤ 1, so such bytes can only
// come from a corrupted or forged file.
var ErrSnapshotAlpha = errors.New("core: snapshot alpha is not a finite exponent <= 0")

// checkSnapshotAlpha vets a decoded α against ErrSnapshotAlpha.
func checkSnapshotAlpha(alpha float64) error {
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha > 0 {
		return fmt.Errorf("%w (alpha=%v)", ErrSnapshotAlpha, alpha)
	}
	return nil
}

// snapshotFlagSharded marks a file that carries one shard's slice of
// the model state rather than a whole model. Such files live inside a
// snapshot directory (see snapshot_shard.go) and are rejected by the
// whole-model decoder.
const snapshotFlagSharded uint32 = 1 << 0

// snapWriter accumulates the little-endian payload.
type snapWriter struct {
	buf bytes.Buffer
	b   [8]byte
}

func (w *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.b[:4], v)
	w.buf.Write(w.b[:4])
}

func (w *snapWriter) i64(v int64) {
	binary.LittleEndian.PutUint64(w.b[:], uint64(v))
	w.buf.Write(w.b[:])
}

func (w *snapWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(w.b[:], math.Float64bits(v))
	w.buf.Write(w.b[:])
}

func (w *snapWriter) bool(v bool) {
	if v {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

// bitset packs a bool slice 8-per-byte: with corpora of millions of
// relationships the selector vectors dominate a naive byte-per-bool
// encoding.
func (w *snapWriter) bitset(v []bool) {
	w.u32(uint32(len(v)))
	var acc byte
	for i, b := range v {
		if b {
			acc |= 1 << (i & 7)
		}
		if i&7 == 7 {
			w.buf.WriteByte(acc)
			acc = 0
		}
	}
	if len(v)&7 != 0 {
		w.buf.WriteByte(acc)
	}
}

func (w *snapWriter) u16s(v []uint16) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		binary.LittleEndian.PutUint16(w.b[:2], x)
		w.buf.Write(w.b[:2])
	}
}

func (w *snapWriter) f64s(v []float64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}

// snapReader decodes the payload, turning every overrun into an error
// instead of a panic.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.data) {
		r.err = fmt.Errorf("core: snapshot truncated at byte %d", r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// length reads a u32 length field and bounds-checks it against the
// remaining payload (each element needs at least elemSize bytes), so a
// corrupt length cannot drive a huge allocation.
func (r *snapReader) length(elemSize int) int {
	n := int(r.u32())
	if r.err == nil && elemSize > 0 && n > (len(r.data)-r.off)/elemSize+1 {
		r.err = fmt.Errorf("core: snapshot length %d exceeds remaining payload", n)
		return 0
	}
	return n
}

func (r *snapReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *snapReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *snapReader) bool() bool {
	b := r.take(1)
	return b != nil && b[0] != 0
}

func (r *snapReader) bitset() []bool {
	n := r.length(0)
	raw := r.take((n + 7) / 8)
	if raw == nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = raw[i>>3]&(1<<(i&7)) != 0
	}
	return out
}

func (r *snapReader) u16s() []uint16 {
	n := r.length(2)
	raw := r.take(2 * n)
	if raw == nil {
		return nil
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(raw[2*i:])
	}
	return out
}

func (r *snapReader) f64s() []float64 {
	n := r.length(8)
	raw := r.take(8 * n)
	if raw == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// f64sInto reads a length-prefixed float64 slice into dst and returns
// the decoded length. When that differs from len(dst) it reads no
// elements, leaving the caller to report the mismatch.
func (r *snapReader) f64sInto(dst []float64) int {
	n := r.length(8)
	if n != len(dst) {
		return n
	}
	raw := r.take(8 * n)
	if raw == nil {
		return n
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return n
}

// retiredConfigSlot fills the three integer config slots whose knobs no
// longer exist: the venue-count layout and the draw pipeline (both "on"
// = 1) and the Workers sweep's goroutine count (1, the sequential chain
// every fit without Shards runs). encodeConfig writes 1 into each and
// false into the retired StaleBoundary flag, and decodeConfig reads and
// ignores all four, so the version-2 format stays byte-for-byte
// unchanged and snapshots written with any value there still load.
const retiredConfigSlot = 1

// encodeConfig writes the defaulted Config field by field in fixed order.
// OnIteration (a callback) is the one field that cannot travel; a loaded
// model never sweeps, so nothing consults it.
func encodeConfig(w *snapWriter, c Config) {
	w.i64(c.Seed)
	w.i64(int64(c.Variant))
	w.i64(int64(c.Iterations))
	w.i64(retiredConfigSlot) // Workers
	w.f64(c.RhoF)
	w.f64(c.RhoT)
	w.i64(int64(c.NoiseBurnIn))
	w.f64(c.Alpha)
	w.f64(c.Beta)
	w.f64(c.Tau)
	w.f64(c.GammaBoost)
	w.f64(c.Delta)
	w.i64(int64(c.MaxCandidates))
	w.i64(int64(c.MaxVenueSenses))
	w.bool(c.GibbsEM)
	w.i64(int64(c.EMInterval))
	w.i64(int64(c.EMPairSample))
	w.bool(c.BlockedSampler)
	w.i64(int64(c.DistTable))
	w.i64(retiredConfigSlot) // venue-count layout
	w.i64(retiredConfigSlot) // draw pipeline
	w.bool(c.DisableNoiseMixture)
	w.bool(c.DisableSupervision)
	w.bool(c.AllLocationCandidates)
	w.i64(int64(c.Shards))
	w.bool(false) // StaleBoundary
}

func decodeConfig(r *snapReader) Config {
	var c Config
	c.Seed = r.i64()
	c.Variant = Variant(r.i64())
	c.Iterations = int(r.i64())
	r.i64() // retired: Workers
	c.RhoF = r.f64()
	c.RhoT = r.f64()
	c.NoiseBurnIn = int(r.i64())
	c.Alpha = r.f64()
	c.Beta = r.f64()
	c.Tau = r.f64()
	c.GammaBoost = r.f64()
	c.Delta = r.f64()
	c.MaxCandidates = int(r.i64())
	c.MaxVenueSenses = int(r.i64())
	c.GibbsEM = r.bool()
	c.EMInterval = int(r.i64())
	c.EMPairSample = int(r.i64())
	c.BlockedSampler = r.bool()
	c.DistTable = DistTableMode(r.i64())
	r.i64() // retired: venue-count layout
	r.i64() // retired: draw pipeline
	c.DisableNoiseMixture = r.bool()
	c.DisableSupervision = r.bool()
	c.AllLocationCandidates = r.bool()
	c.Shards = int(r.i64())
	r.bool() // retired: StaleBoundary
	return c
}

// checkWorldFingerprint consumes the section hashes from r and compares
// them against want, the corpus's dataset.Fingerprint, so the mismatch
// error can say *what* differs (a swapped gazetteer vs. an edited edge
// list). Handles and registered strings are deliberately outside the
// fingerprint — they never enter inference, so renaming a user must not
// invalidate a snapshot.
func checkWorldFingerprint(want [dataset.NumFingerprintSections][sha256.Size]byte, r *snapReader) error {
	for s := dataset.FingerprintSection(0); s < dataset.NumFingerprintSections; s++ {
		var got [sha256.Size]byte
		copy(got[:], r.take(sha256.Size))
		if r.err == nil && got != want[s] {
			return fmt.Errorf("core: snapshot was fitted against a different world: %s fingerprint mismatch", dataset.FingerprintSection(s))
		}
	}
	return nil
}

// newSnapshotModel builds the deterministic, corpus-derived part of a
// loaded model: distance machinery, candidacy vectors and priors, and an
// empty venue-count store. cands, when not nil, is a candidacy another
// loaded model built for an interchangeable corpus under the same
// candidacyKey (see reusableCandidacy); nil builds it. The caller
// scatters the snapshot-carried state (ϕ, latent assignments, venue
// triples) into the model.
func newSnapshotModel(c *dataset.Corpus, cfg Config, alpha, beta float64, iters int, cands *candidateSet) *Model {
	m := &Model{
		cfg:    cfg,
		corpus: c,
		dc:     newDistCalc(c.Gaz),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		useF:   cfg.Variant != TweetingOnly,
		useT:   cfg.Variant != FollowingOnly,
	}
	m.alpha = alpha
	m.beta = beta
	m.iterationsRun = iters
	m.curIter = iters

	// Candidacy vectors and priors are deterministic in (corpus, config);
	// rebuilding reproduces the exact γ the counts were accumulated under.
	m.cands = cands
	if m.cands == nil {
		m.cands = buildCandidates(c, cfg, m.useF, m.useT)
	}

	// The distance table serves MAPExplainEdge's d^α exactly as the
	// fitted model does after Fit: single lookups at the final exponent,
	// with no universe matrices (budget 0).
	if m.useF && cfg.DistTable != DistTableOff {
		m.dt = newDistTable(m.dc, c.Gaz.Len(), m.cands.cand, 0)
		m.dt.setAlpha(m.alpha)
	}

	m.numVenues = c.Venues.Len()
	m.deltaTotal = m.cfg.Delta * float64(m.numVenues)
	m.ps = newPsiStore(m.numVenues)
	m.venueSum = make([]float64, c.Gaz.Len())
	return m
}

// addVenueTriple folds one decoded (venue, city, count) triple into the
// venue-count store, validating range and integrality: a count counts
// tweets, so it is an integer in [1, len(Tweets)]. The comparisons
// refuse NaN and ±Inf too. venueSum is the per-city total of
// integer-valued counts, so summing reproduces the fitted model's
// incrementally maintained value exactly.
func (m *Model) addVenueTriple(v, l int, cnt float64) error {
	if v >= m.numVenues || l >= m.corpus.Gaz.Len() {
		return fmt.Errorf("core: snapshot venue count (%d, %d) out of range", v, l)
	}
	if tweets := float64(len(m.corpus.Tweets)); !(cnt >= 1 && cnt <= tweets) || cnt != math.Trunc(cnt) {
		return fmt.Errorf("core: snapshot venue count (%d, %d) = %v is not an integer in [1, %d]", v, l, cnt, len(m.corpus.Tweets))
	}
	m.ps.add(gazetteer.VenueID(v), gazetteer.CityID(l), cnt)
	m.venueSum[l] += cnt
	return nil
}

// EncodeSnapshot writes the model's snapshot to w. The encoding is
// deterministic: the same fitted model always produces the same bytes
// (venue-count triples are emitted in sorted order, independent of the
// store rows' internal order).
func (m *Model) EncodeSnapshot(wr io.Writer) error {
	w := &snapWriter{}
	w.buf.Write(snapshotMagic[:])
	w.u32(SnapshotVersion)
	w.u32(0) // flags: whole model, not a shard slice
	w.u32(0) // shard index
	w.u32(1) // shard count

	fp := dataset.Fingerprint(m.corpus)
	for _, h := range fp {
		w.buf.Write(h[:])
	}

	encodeConfig(w, m.cfg)

	w.f64(m.alpha)
	w.f64(m.beta)
	w.i64(int64(m.iterationsRun))

	// Collapsed profile counts ϕ, one row per user in corpus order.
	w.u32(uint32(len(m.phi)))
	for _, row := range m.phi {
		w.f64s(row)
	}
	w.f64s(m.phiSum)

	// Edge latent state (present iff the variant consumes edges).
	w.bool(m.useF)
	if m.useF {
		w.bitset(m.mu)
		w.u16s(m.ex)
		w.u16s(m.ey)
	}
	// Tweet latent state.
	w.bool(m.useT)
	if m.useT {
		w.bitset(m.nu)
		w.u16s(m.tz)
	}

	// Collapsed venue counts as (venue, city, count) triples sorted by
	// venue, then city. The store is already venue-major, so only each
	// row's live pairs need sorting.
	live := 0
	for v := range m.ps.rows {
		live += m.ps.rows[v].live()
	}
	w.u32(uint32(live))
	type pair struct {
		l   int32
		cnt float64
	}
	var row []pair
	for v := range m.ps.rows {
		r := &m.ps.rows[v]
		row = row[:0]
		for i, l := range r.cities {
			row = append(row, pair{l, r.vals[i]})
		}
		sort.Slice(row, func(i, j int) bool { return row[i].l < row[j].l })
		for _, p := range row {
			w.u32(uint32(v))
			w.u32(uint32(p.l))
			w.f64(p.cnt)
		}
	}

	// Trailer: checksum of everything above, so a truncated or corrupted
	// file fails loudly instead of loading garbage counts.
	sum := sha256.Sum256(w.buf.Bytes())
	w.buf.Write(sum[:])
	_, err := wr.Write(w.buf.Bytes())
	return err
}

// SaveSnapshot writes the snapshot atomically: to a temp file in the
// destination directory, fsynced and close-checked, then renamed over
// path. A crash or full disk never leaves a half-written snapshot at
// path.
func (m *Model) SaveSnapshot(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".mlp-snapshot-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close() //mlp:allow closecheck error path: the original write error is returned and the temp file removed
		os.Remove(tmp)
		return err
	}
	if err := m.EncodeSnapshot(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// DecodeSnapshot reads a snapshot and reconstructs the fitted model
// against the given corpus — the same world the snapshot was fitted on,
// verified by fingerprint before anything is rebuilt. The returned model
// is read-only: every readout is bit-for-bit identical to the model that
// wrote the snapshot, but it cannot resume sampling.
func DecodeSnapshot(c *dataset.Corpus, rd io.Reader) (*Model, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(c, data, nil)
}

// decodeSnapshot is DecodeSnapshot over the snapshot's bytes, with the
// candidacy of prev, a model loaded earlier, reused when it fits (see
// ReloadSnapshot); prev may be nil. Every check runs whatever prev is,
// and prev is consulted only once the header has passed them. The
// decoded profile rows and latent assignments are copied out, so data is
// not retained.
func decodeSnapshot(c *dataset.Corpus, data []byte, prev *Model) (*Model, error) {
	minLen := len(snapshotMagic) + 16 + int(dataset.NumFingerprintSections)*sha256.Size + sha256.Size
	if len(data) < minLen {
		return nil, fmt.Errorf("core: snapshot too short (%d bytes) — truncated or not a snapshot", len(data))
	}
	if !bytes.Equal(data[:len(snapshotMagic)], snapshotMagic[:]) {
		return nil, fmt.Errorf("core: not a model snapshot (bad magic)")
	}
	payload, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("core: snapshot checksum mismatch — file truncated or corrupted")
	}

	r := &snapReader{data: payload, off: len(snapshotMagic)}
	version := r.u32()
	if version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d not supported (want %d)", version, SnapshotVersion)
	}
	flags := r.u32()
	shardIndex := r.u32()
	shardCount := r.u32()
	if flags&snapshotFlagSharded != 0 || shardCount != 1 || shardIndex != 0 {
		return nil, fmt.Errorf("core: file is shard %d of a %d-shard snapshot — load the snapshot directory instead", shardIndex, shardCount)
	}

	if err := c.Validate(); err != nil {
		return nil, err
	}
	world := dataset.Fingerprint(c)
	if err := checkWorldFingerprint(world, r); err != nil {
		return nil, err
	}

	cfg := decodeConfig(r)
	if r.err != nil {
		return nil, r.err
	}
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("core: snapshot config invalid: %w", err)
	}
	if err := checkCandidateLimit(cfg, c.Gaz); err != nil {
		return nil, fmt.Errorf("core: snapshot config invalid: %w", err)
	}

	alpha := r.f64()
	beta := r.f64()
	iters := int(r.i64())
	if r.err != nil {
		return nil, r.err
	}
	if err := checkSnapshotAlpha(alpha); err != nil {
		return nil, err
	}
	m := newSnapshotModel(c, cfg, alpha, beta, iters, reusableCandidacy(prev, world, cfg))
	m.world = &world

	n := len(c.Users)
	if got := int(r.u32()); r.err == nil && got != n {
		return nil, fmt.Errorf("core: snapshot has %d profile rows for %d users", got, n)
	}
	// The rows land in one slab sized by the candidacy, each checked
	// against its user's candidate count before it is read.
	m.phi = slabRows(m.cands.cand)
	for u, row := range m.phi {
		got := r.f64sInto(row)
		if r.err != nil {
			return nil, r.err
		}
		if got != len(row) {
			return nil, fmt.Errorf("core: snapshot profile row %d has %d counts for %d candidates", u, got, len(row))
		}
	}
	m.phiSum = r.f64s()
	if r.err == nil && len(m.phiSum) != n {
		return nil, fmt.Errorf("core: snapshot has %d profile sums for %d users", len(m.phiSum), n)
	}

	if hasEdges := r.bool(); r.err == nil && hasEdges != m.useF {
		return nil, fmt.Errorf("core: snapshot edge state disagrees with variant %v", cfg.Variant)
	}
	if m.useF {
		m.mu = r.bitset()
		m.ex = r.u16s()
		m.ey = r.u16s()
		S := len(c.Edges)
		if r.err == nil && (len(m.mu) != S || len(m.ex) != S || len(m.ey) != S) {
			return nil, fmt.Errorf("core: snapshot edge state sized %d/%d/%d for %d edges", len(m.mu), len(m.ex), len(m.ey), S)
		}
		for s, e := range c.Edges {
			if r.err != nil {
				break
			}
			if int(m.ex[s]) >= len(m.cands.cand[e.From]) || int(m.ey[s]) >= len(m.cands.cand[e.To]) {
				return nil, fmt.Errorf("core: snapshot edge %d assignment out of candidate range", s)
			}
		}
	}
	if hasTweets := r.bool(); r.err == nil && hasTweets != m.useT {
		return nil, fmt.Errorf("core: snapshot tweet state disagrees with variant %v", cfg.Variant)
	}
	if m.useT {
		m.nu = r.bitset()
		m.tz = r.u16s()
		K := len(c.Tweets)
		if r.err == nil && (len(m.nu) != K || len(m.tz) != K) {
			return nil, fmt.Errorf("core: snapshot tweet state sized %d/%d for %d tweets", len(m.nu), len(m.tz), K)
		}
		for k, t := range c.Tweets {
			if r.err != nil {
				break
			}
			if int(m.tz[k]) >= len(m.cands.cand[t.User]) {
				return nil, fmt.Errorf("core: snapshot tweet %d assignment out of candidate range", k)
			}
		}
	}

	// Collapsed venue counts, rebuilt into the venue-major store.
	nTriples := r.length(16)
	for i := 0; i < nTriples; i++ {
		v := int(r.u32())
		l := int(r.u32())
		cnt := r.f64()
		if r.err != nil {
			return nil, r.err
		}
		if err := m.addVenueTriple(v, l, cnt); err != nil {
			return nil, err
		}
	}

	m.initRandomModels()

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("core: snapshot has %d trailing bytes", len(payload)-r.off)
	}
	return m, nil
}

// LoadSnapshot reads a snapshot written by SaveSnapshot (a single file)
// or SaveShardedSnapshot (a directory; routed to LoadShardedSnapshot)
// and reconstructs the fitted model against the given corpus.
func LoadSnapshot(c *dataset.Corpus, path string) (*Model, error) {
	return ReloadSnapshot(c, path, nil)
}

// ReloadSnapshot is LoadSnapshot for a model that replaces prev, the
// model a server is serving (nil for a first load). A single-file
// snapshot runs every check LoadSnapshot runs — trailer checksum,
// version, corpus validation, a freshly computed world fingerprint,
// config, candidate limit, α, row lengths and assignment ranges — and
// then shares prev's read-only candidacy instead of rebuilding it when
// prev was itself loaded from a snapshot over a corpus with the same
// fingerprint and under the same candidacyKey. Candidacy is a function
// of exactly those, so the model is the one LoadSnapshot returns, bit
// for bit. A fitted prev recorded no fingerprint and is never shared
// from; a directory loads as LoadSnapshot loads it.
func ReloadSnapshot(c *dataset.Corpus, path string, prev *Model) (*Model, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return LoadShardedSnapshot(c, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := decodeSnapshot(c, data, prev)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// reusableCandidacy returns prev's candidacy when a load over a corpus
// with fingerprint world under cfg would build the same one: prev was
// loaded over a corpus with that fingerprint (dataset.Fingerprint's
// contract: equal fingerprints make corpora interchangeable for the
// model, and its sections hold everything candidacy reads) and built
// its candidacy under the same candidacyKey. Otherwise it returns nil.
func reusableCandidacy(prev *Model, world [dataset.NumFingerprintSections][sha256.Size]byte, cfg Config) *candidateSet {
	if prev == nil || prev.world == nil || *prev.world != world || candidacyKeyOf(prev.cfg) != candidacyKeyOf(cfg) {
		return nil
	}
	return prev.cands
}

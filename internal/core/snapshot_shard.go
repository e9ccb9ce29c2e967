package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mlprofile/internal/dataset"
)

// Sharded snapshots (DESIGN.md §11): a model fitted with Config.Shards>1
// is persisted as a *directory* — one slice file per shard plus a JSON
// manifest — so each shard's state can be written (and, on a cluster,
// produced) independently and the loader can verify integrity per file.
//
// Each slice file reuses the whole-model container (magic, version,
// world fingerprint, config, SHA-256 trailer) with the sharded flag set
// and carries only the state its shard owns: ϕ rows for owned users,
// latent edge state for edges whose follower it owns, latent tweet
// state and collapsed venue counts for owned tweets. Ownership is a
// pure function of (id, shard count) via dataset.ShardOf, so the slice
// files carry no index vectors — the loader recomputes the same owned
// lists and scatters in corpus order.
//
// The manifest is written last, after every slice file is durably in
// place, so a crashed save never leaves a loadable-looking directory.

// snapshotManifestFile names the directory manifest.
const snapshotManifestFile = "manifest.json"

// snapshotManifestVersion is the manifest format version (independent
// of SnapshotVersion, which governs the binary slice files).
const snapshotManifestVersion = 1

type snapshotManifest struct {
	Version    int                     `json:"version"`
	ShardCount int                     `json:"shard_count"`
	Files      []snapshotManifestEntry `json:"files"`
}

type snapshotManifestEntry struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Users  int    `json:"users"`
	Edges  int    `json:"edges"`
	Tweets int    `json:"tweets"`
}

// snapshotShardName names shard s's slice file.
func snapshotShardName(s int) string {
	return fmt.Sprintf("shard-%03d.mlpsnap", s)
}

// snapshotOwnership recomputes, for every shard, the corpus-order lists
// of users, edges and tweets that shard owns. Save and load both call
// this, which is what lets slice files omit index vectors entirely.
func snapshotOwnership(c *dataset.Corpus, shards int) (users, edges, tweets [][]int32) {
	users = make([][]int32, shards)
	edges = make([][]int32, shards)
	tweets = make([][]int32, shards)
	for u := range c.Users {
		s := dataset.ShardOf(dataset.UserID(u), shards)
		users[s] = append(users[s], int32(u))
	}
	for e, edge := range c.Edges {
		s := dataset.ShardOf(edge.From, shards)
		edges[s] = append(edges[s], int32(e))
	}
	for k, t := range c.Tweets {
		s := dataset.ShardOf(t.User, shards)
		tweets[s] = append(tweets[s], int32(k))
	}
	return users, edges, tweets
}

// encodeShardSnapshot encodes shard s's slice of the model. fp is the
// corpus's dataset.Fingerprint, hashed once for all slices.
func (m *Model) encodeShardSnapshot(s, shards int, fp [dataset.NumFingerprintSections][sha256.Size]byte, users, edges, tweets []int32) []byte {
	w := &snapWriter{}
	w.buf.Write(snapshotMagic[:])
	w.u32(SnapshotVersion)
	w.u32(snapshotFlagSharded)
	w.u32(uint32(s))
	w.u32(uint32(shards))

	for _, h := range fp {
		w.buf.Write(h[:])
	}
	encodeConfig(w, m.cfg)
	w.f64(m.alpha)
	w.f64(m.beta)
	w.i64(int64(m.iterationsRun))

	w.u32(uint32(len(users)))
	for _, u := range users {
		w.f64s(m.phi[u])
	}
	sums := make([]float64, len(users))
	for i, u := range users {
		sums[i] = m.phiSum[u]
	}
	w.f64s(sums)

	w.bool(m.useF)
	if m.useF {
		mu := make([]bool, len(edges))
		ex := make([]uint16, len(edges))
		ey := make([]uint16, len(edges))
		for i, e := range edges {
			mu[i] = m.mu[e]
			ex[i] = m.ex[e]
			ey[i] = m.ey[e]
		}
		w.bitset(mu)
		w.u16s(ex)
		w.u16s(ey)
	}
	w.bool(m.useT)
	if m.useT {
		nu := make([]bool, len(tweets))
		tz := make([]uint16, len(tweets))
		for i, k := range tweets {
			nu[i] = m.nu[k]
			tz[i] = m.tz[k]
		}
		w.bitset(nu)
		w.u16s(tz)
	}

	// Collapsed venue counts contributed by this shard's tweets: a
	// counted tweet (ν=0) adds one at (assigned city, venue). Summing
	// the triples across all shards reproduces the model's venue-count
	// store exactly.
	type triple struct {
		v   int32
		l   int32
		cnt float64
	}
	acc := map[[2]int32]float64{}
	if m.useT {
		for _, k := range tweets {
			if m.nu[k] {
				continue
			}
			t := m.corpus.Tweets[k]
			l := m.cands.cand[t.User][m.tz[k]]
			acc[[2]int32{int32(t.Venue), int32(l)}]++
		}
	}
	triples := make([]triple, 0, len(acc))
	//mlp:allow maporder order-independent: triples are fully sorted below before encoding
	for key, cnt := range acc {
		triples = append(triples, triple{key[0], key[1], cnt})
	}
	sort.Slice(triples, func(i, j int) bool {
		if triples[i].v != triples[j].v {
			return triples[i].v < triples[j].v
		}
		return triples[i].l < triples[j].l
	})
	w.u32(uint32(len(triples)))
	for _, t := range triples {
		w.u32(uint32(t.v))
		w.u32(uint32(t.l))
		w.f64(t.cnt)
	}

	sum := sha256.Sum256(w.buf.Bytes())
	w.buf.Write(sum[:])
	return w.buf.Bytes()
}

// writeSnapshotFileAtomic writes data to path via a fsynced temp file
// and rename, the same durability contract SaveSnapshot gives.
func writeSnapshotFileAtomic(path string, data []byte) error {
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
	if _, err := f.Write(data); err != nil {
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

// SaveShardedSnapshot writes the model as a sharded snapshot directory:
// one slice file per Config.Shards shard plus manifest.json. Slice
// files are written (atomically) before the manifest, so an interrupted
// save is never mistaken for a complete snapshot.
func (m *Model) SaveShardedSnapshot(dir string) error {
	shards := m.cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	users, edges, tweets := snapshotOwnership(m.corpus, shards)
	fp := dataset.Fingerprint(m.corpus)
	man := snapshotManifest{Version: snapshotManifestVersion, ShardCount: shards}
	for s := 0; s < shards; s++ {
		data := m.encodeShardSnapshot(s, shards, fp, users[s], edges[s], tweets[s])
		name := snapshotShardName(s)
		if err := writeSnapshotFileAtomic(filepath.Join(dir, name), data); err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		man.Files = append(man.Files, snapshotManifestEntry{
			Name:   name,
			SHA256: hex.EncodeToString(sum[:]),
			Users:  len(users[s]),
			Edges:  len(edges[s]),
			Tweets: len(tweets[s]),
		})
	}
	raw, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return err
	}
	return writeSnapshotFileAtomic(filepath.Join(dir, snapshotManifestFile), append(raw, '\n'))
}

// LoadShardedSnapshot reads a sharded snapshot directory written by
// SaveShardedSnapshot and reassembles the full fitted model against the
// given corpus. Every slice file is verified three ways — manifest
// SHA-256, embedded trailer checksum, world fingerprint — and all
// shards must agree on the config and posterior scalars.
func LoadShardedSnapshot(c *dataset.Corpus, dir string) (*Model, error) {
	m, err := loadShardedSnapshot(c, dir, -1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return m, nil
}

// LoadSnapshotShard reads exactly one slice file of a sharded snapshot
// directory and scatters it into an otherwise-empty model: the unit of
// placement for a serving tier that spreads a fitted model across
// per-shard backends (DESIGN.md §12). The returned model carries full
// fitted state only for the users/edges/tweets dataset.ShardOf assigns
// to the given shard — Profile reads for owned users are bit-identical
// to a full load, while state the shard does not own is zero-valued.
// Callers (the serve router's partial backends) must therefore gate
// every readout on ShardOf ownership.
func LoadSnapshotShard(c *dataset.Corpus, dir string, shard int) (*Model, error) {
	if shard < 0 {
		return nil, fmt.Errorf("%s: shard index %d out of range", dir, shard)
	}
	m, err := loadShardedSnapshot(c, dir, shard)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return m, nil
}

// SnapshotShardCount reads a sharded snapshot directory's manifest and
// returns how many shard slices it holds, without loading any of them.
func SnapshotShardCount(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotManifestFile))
	if err != nil {
		return 0, err
	}
	var man snapshotManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return 0, fmt.Errorf("core: sharded snapshot manifest: %w", err)
	}
	if man.ShardCount < 1 {
		return 0, fmt.Errorf("core: sharded snapshot manifest declares %d shards", man.ShardCount)
	}
	return man.ShardCount, nil
}

// loadShardedSnapshot decodes a sharded snapshot directory. only selects
// a single slice to decode (partial placement load); only = -1 decodes
// every slice into the complete model.
func loadShardedSnapshot(c *dataset.Corpus, dir string, only int) (*Model, error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotManifestFile))
	if err != nil {
		return nil, err
	}
	var man snapshotManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("core: sharded snapshot manifest: %w", err)
	}
	if man.Version != snapshotManifestVersion {
		return nil, fmt.Errorf("core: sharded snapshot manifest version %d not supported (want %d)", man.Version, snapshotManifestVersion)
	}
	if man.ShardCount < 1 || len(man.Files) != man.ShardCount {
		return nil, fmt.Errorf("core: sharded snapshot manifest lists %d files for %d shards", len(man.Files), man.ShardCount)
	}
	if only >= man.ShardCount {
		return nil, fmt.Errorf("core: shard %d out of range: directory holds %d shards", only, man.ShardCount)
	}

	if err := c.Validate(); err != nil {
		return nil, err
	}
	users, edges, tweets := snapshotOwnership(c, man.ShardCount)
	fp := dataset.Fingerprint(c)

	var m *Model
	var confRef []byte
	for s, entry := range man.Files {
		if only >= 0 && s != only {
			continue
		}
		if filepath.Base(entry.Name) != entry.Name {
			return nil, fmt.Errorf("core: sharded snapshot manifest names %q outside the snapshot directory", entry.Name)
		}
		data, err := os.ReadFile(filepath.Join(dir, entry.Name))
		if err != nil {
			return nil, err
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != entry.SHA256 {
			return nil, fmt.Errorf("core: %s: checksum disagrees with manifest — file corrupted or replaced", entry.Name)
		}
		minLen := len(snapshotMagic) + 16 + int(dataset.NumFingerprintSections)*sha256.Size + sha256.Size
		if len(data) < minLen {
			return nil, fmt.Errorf("core: %s: too short (%d bytes) — truncated or not a snapshot shard", entry.Name, len(data))
		}
		if !bytes.Equal(data[:len(snapshotMagic)], snapshotMagic[:]) {
			return nil, fmt.Errorf("core: %s: not a model snapshot (bad magic)", entry.Name)
		}
		payload, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
		if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], trailer) {
			return nil, fmt.Errorf("core: %s: snapshot checksum mismatch — file truncated or corrupted", entry.Name)
		}

		r := &snapReader{data: payload, off: len(snapshotMagic)}
		if version := r.u32(); version != SnapshotVersion {
			return nil, fmt.Errorf("core: %s: snapshot version %d not supported (want %d)", entry.Name, version, SnapshotVersion)
		}
		flags := r.u32()
		shardIndex := int(r.u32())
		shardCount := int(r.u32())
		if flags&snapshotFlagSharded == 0 {
			return nil, fmt.Errorf("core: %s: whole-model snapshot inside a sharded snapshot directory", entry.Name)
		}
		if shardIndex != s || shardCount != man.ShardCount {
			return nil, fmt.Errorf("core: %s: header says shard %d of %d, manifest says %d of %d", entry.Name, shardIndex, shardCount, s, man.ShardCount)
		}
		if err := checkWorldFingerprint(fp, r); err != nil {
			return nil, err
		}

		confStart := r.off
		cfg := decodeConfig(r)
		alpha := r.f64()
		beta := r.f64()
		iters := int(r.i64())
		if r.err != nil {
			return nil, r.err
		}
		conf := payload[confStart:r.off]
		if m == nil {
			if err := cfg.validate(); err != nil {
				return nil, fmt.Errorf("core: snapshot config invalid: %w", err)
			}
			if err := checkCandidateLimit(cfg, c.Gaz); err != nil {
				return nil, fmt.Errorf("core: snapshot config invalid: %w", err)
			}
			if cfg.Shards != man.ShardCount {
				return nil, fmt.Errorf("core: snapshot fitted with Shards=%d but directory holds %d shards", cfg.Shards, man.ShardCount)
			}
			if err := checkSnapshotAlpha(alpha); err != nil {
				return nil, err
			}
			m = newSnapshotModel(c, cfg, alpha, beta, iters, nil)
			m.phi = make([][]float64, len(c.Users))
			m.phiSum = make([]float64, len(c.Users))
			if m.useF {
				m.mu = make([]bool, len(c.Edges))
				m.ex = make([]uint16, len(c.Edges))
				m.ey = make([]uint16, len(c.Edges))
			}
			if m.useT {
				m.nu = make([]bool, len(c.Tweets))
				m.tz = make([]uint16, len(c.Tweets))
			}
			confRef = conf
		} else if !bytes.Equal(conf, confRef) {
			return nil, fmt.Errorf("core: %s: shards disagree on config or posterior scalars", entry.Name)
		}

		if err := m.decodeShardPayload(r, entry.Name, users[s], edges[s], tweets[s]); err != nil {
			return nil, err
		}
		if r.err != nil {
			return nil, r.err
		}
		if r.off != len(payload) {
			return nil, fmt.Errorf("core: %s: %d trailing bytes", entry.Name, len(payload)-r.off)
		}
	}

	m.initRandomModels()
	return m, nil
}

// decodeShardPayload scatters one shard's slice payload into the
// assembled model, validating every length and assignment range against
// the recomputed ownership lists.
func (m *Model) decodeShardPayload(r *snapReader, name string, users, edges, tweets []int32) error {
	c := m.corpus
	if got := int(r.u32()); r.err == nil && got != len(users) {
		return fmt.Errorf("core: %s: %d profile rows for %d owned users", name, got, len(users))
	}
	for _, u := range users {
		row := r.f64s()
		if r.err != nil {
			return r.err
		}
		if len(row) != len(m.cands.cand[u]) {
			return fmt.Errorf("core: %s: profile row for user %d has %d counts for %d candidates", name, u, len(row), len(m.cands.cand[u]))
		}
		m.phi[u] = row
	}
	sums := r.f64s()
	if r.err == nil && len(sums) != len(users) {
		return fmt.Errorf("core: %s: %d profile sums for %d owned users", name, len(sums), len(users))
	}
	if r.err != nil {
		return r.err
	}
	for i, u := range users {
		m.phiSum[u] = sums[i]
	}

	if hasEdges := r.bool(); r.err == nil && hasEdges != m.useF {
		return fmt.Errorf("core: %s: edge state disagrees with variant %v", name, m.cfg.Variant)
	}
	if m.useF {
		mu := r.bitset()
		ex := r.u16s()
		ey := r.u16s()
		if r.err != nil {
			return r.err
		}
		if len(mu) != len(edges) || len(ex) != len(edges) || len(ey) != len(edges) {
			return fmt.Errorf("core: %s: edge state sized %d/%d/%d for %d owned edges", name, len(mu), len(ex), len(ey), len(edges))
		}
		for i, e := range edges {
			edge := c.Edges[e]
			if int(ex[i]) >= len(m.cands.cand[edge.From]) || int(ey[i]) >= len(m.cands.cand[edge.To]) {
				return fmt.Errorf("core: %s: edge %d assignment out of candidate range", name, e)
			}
			m.mu[e] = mu[i]
			m.ex[e] = ex[i]
			m.ey[e] = ey[i]
		}
	}
	if hasTweets := r.bool(); r.err == nil && hasTweets != m.useT {
		return fmt.Errorf("core: %s: tweet state disagrees with variant %v", name, m.cfg.Variant)
	}
	if m.useT {
		nu := r.bitset()
		tz := r.u16s()
		if r.err != nil {
			return r.err
		}
		if len(nu) != len(tweets) || len(tz) != len(tweets) {
			return fmt.Errorf("core: %s: tweet state sized %d/%d for %d owned tweets", name, len(nu), len(tz), len(tweets))
		}
		for i, k := range tweets {
			if int(tz[i]) >= len(m.cands.cand[c.Tweets[k].User]) {
				return fmt.Errorf("core: %s: tweet %d assignment out of candidate range", name, k)
			}
			m.nu[k] = nu[i]
			m.tz[k] = tz[i]
		}
	}

	nTriples := r.length(16)
	for i := 0; i < nTriples; i++ {
		v := int(r.u32())
		l := int(r.u32())
		cnt := r.f64()
		if r.err != nil {
			return r.err
		}
		if err := m.addVenueTriple(v, l, cnt); err != nil {
			return err
		}
	}
	return nil
}

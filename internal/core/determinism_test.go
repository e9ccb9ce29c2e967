package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// fitFingerprint reduces a fitted model to a single hash covering every
// user's full profile (city IDs and exact float64 weight bits), the
// refined (α, β), and the noise rates. Two fits agree on the fingerprint
// iff they are bit-for-bit identical in everything the model exposes.
func fitFingerprint(m *Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	for u := range m.corpus.Users {
		for _, wl := range m.Profile(dataset.UserID(u)) {
			w64(uint64(wl.City))
			wf(wl.Weight)
		}
	}
	alpha, beta := m.AlphaBeta()
	wf(alpha)
	wf(beta)
	en, tn := m.NoiseStats()
	wf(en)
	wf(tn)
	return h.Sum64()
}

// goldenCfg is the fixed configuration the sequential-determinism golden
// was captured under (pre-parallelization sequential sampler, after the
// labeledPairHistogram and initState fixes). It exercises the noise
// mixture, Gibbs-EM, and both observation types. DistTable is pinned off:
// this golden locks the paper's exact arithmetic, which the distance-table
// refactor is required to leave bit-for-bit intact.
func goldenCfg() Config {
	return Config{
		Seed:         7,
		Iterations:   8,
		Workers:      1,
		GibbsEM:      true,
		EMInterval:   3,
		EMPairSample: 20000,
		DistTable:    DistTableOff,
	}
}

func goldenWorld(t testing.TB) *synth.Config {
	t.Helper()
	return &synth.Config{Seed: 73, NumUsers: 300, NumLocations: 120}
}

// goldenFingerprint is the fingerprint of the pre-parallelization
// sequential sampler on the golden world/config. Workers=1 must keep
// reproducing it bit-for-bit: the parallel refactor is required to leave
// the sequential path's RNG consumption and arithmetic untouched.
const goldenFingerprint = uint64(0xdeef2b9070a15517)

// TestWorkers1MatchesSequentialGolden locks the Workers=1 exact path to
// the pre-change sequential sampler.
func TestWorkers1MatchesSequentialGolden(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := fitFingerprint(m)
	t.Logf("fingerprint: %#x", got)
	if got != goldenFingerprint {
		t.Errorf("Workers=1 fingerprint %#x differs from the sequential golden %#x", got, goldenFingerprint)
	}
}

// goldenMatrix pins every Workers × DistTable execution mode to a frozen
// fingerprint on the golden world/config, so any refactor that changes
// RNG consumption, partitioning, or table arithmetic in any mode is
// caught immediately. The Workers=1 exact entry is the original
// pre-parallelization golden; the others were captured from the first
// distance-table implementation (all four verified bit-stable across
// runs by TestParallelDeterministicForFixedWorkers-style re-fits).
var goldenMatrix = []struct {
	name        string
	workers     int
	dist        DistTableMode
	fingerprint uint64
}{
	// The table entries equal their exact counterparts: on the golden
	// world not a single draw flips under quantization, so the coupled
	// chains remain bit-identical end to end. A diverging table
	// fingerprint with an intact exact fingerprint means the fast path
	// decoupled (RNG consumption or inversion order drifted).
	{"workers=1/exact", 1, DistTableOff, goldenFingerprint},
	{"workers=1/table", 1, DistTableOn, goldenFingerprint},
	{"workers=4/exact", 4, DistTableOff, 0x41becc5c7b68d6e1},
	{"workers=4/table", 4, DistTableOn, 0x41becc5c7b68d6e1},
}

// goldenChainName suffixes every golden cell name with the venue-count
// store and draw pipeline the chain runs: the venue-major store and the
// fused draw, the only ones the sampler has. Cell names therefore stay
// the ones logged while the map store and the scan draw were axes of
// the matrix.
const goldenChainName = "/psi=venue/draw=fused"

// TestGoldenFingerprintMatrix fits every golden-matrix cell and checks
// the count invariants after every sweep on the way.
func TestGoldenFingerprintMatrix(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenMatrix {
		t.Run(g.name+goldenChainName, func(t *testing.T) {
			cfg := goldenCfg()
			cfg.Workers = g.workers
			cfg.DistTable = g.dist
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
		})
	}
}

// TestGoldenMatrixBlocked pins the blocked kernel the same way: the
// exact blocked kernel and the pruned factored table kernel each have a
// frozen fingerprint, covering the factored kernel's decomposed sums and
// hierarchical inversion.
var goldenBlocked = []struct {
	name        string
	dist        DistTableMode
	fingerprint uint64
}{
	{"blocked/exact", DistTableOff, 0x437267856b78509f},
	{"blocked/table", DistTableOn, 0x437267856b78509f},
}

func TestGoldenMatrixBlocked(t *testing.T) {
	if testing.Short() {
		t.Skip("exact blocked kernel is O(nI\u00b7nJ) pow calls per edge; run without -short")
	}
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenBlocked {
		t.Run(g.name+goldenChainName, func(t *testing.T) {
			cfg := goldenCfg()
			cfg.BlockedSampler = true
			cfg.DistTable = g.dist
			m, err := Fit(&d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := fitFingerprint(m)
			t.Logf("fingerprint: %#x", got)
			if got != g.fingerprint {
				t.Errorf("%s fingerprint %#x differs from golden %#x", g.name, got, g.fingerprint)
			}
		})
	}
}

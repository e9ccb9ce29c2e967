package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
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
// mixture, Gibbs-EM, and both observation types. No parallelism field is
// set: the default chain is the sequential one.
func goldenCfg() Config {
	return Config{
		Seed:         7,
		Iterations:   8,
		GibbsEM:      true,
		EMInterval:   3,
		EMPairSample: 20000,
	}
}

func goldenWorld(t testing.TB) *synth.Config {
	t.Helper()
	return &synth.Config{Seed: 73, NumUsers: 300, NumLocations: 120}
}

// goldenFingerprint is the fingerprint of the pre-parallelization
// sequential sampler on the golden world/config. The default chain must
// keep reproducing it bit-for-bit on every machine: no refactor may
// change the sequential path's RNG consumption or arithmetic.
const goldenFingerprint = uint64(0xdeef2b9070a15517)

// TestWorkers1MatchesSequentialGolden locks the default chain to the
// pre-change sequential sampler whatever the core count: a fit with no
// parallelism field set must hit goldenFingerprint under GOMAXPROCS 1
// and 4. (The name dates from the retired Workers knob, whose GOMAXPROCS
// default made the default chain depend on the machine.)
func TestWorkers1MatchesSequentialGolden(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		m, err := Fit(&d.Corpus, goldenCfg())
		if err != nil {
			t.Fatal(err)
		}
		got := fitFingerprint(m)
		t.Logf("GOMAXPROCS=%d fingerprint: %#x", procs, got)
		if got != goldenFingerprint {
			t.Errorf("GOMAXPROCS=%d: default fingerprint %#x differs from the sequential golden %#x", procs, got, goldenFingerprint)
		}
	}
}

// goldenMatrix pins the sequential chain to the frozen golden
// fingerprint, so any refactor that changes RNG consumption or
// arithmetic is caught immediately. Cell names keep the "workers=1/"
// and "/table" parts of the retired Workers and distance-mode axes, so
// the surviving cell keeps its ID.
var goldenMatrix = []struct {
	name        string
	fingerprint uint64
}{
	{"workers=1/table", goldenFingerprint},
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

// TestGoldenMatrixBlocked pins the blocked kernel the same way, covering
// its factored kernel's decomposed sums and hierarchical inversion. The
// pin was first captured from the flat O(nI·nJ) joint the factored form
// replaced.
var goldenBlocked = []struct {
	name        string
	fingerprint uint64
}{
	{"blocked/table", 0x437267856b78509f},
}

func TestGoldenMatrixBlocked(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenBlocked {
		t.Run(g.name+goldenChainName, func(t *testing.T) {
			cfg := goldenCfg()
			cfg.BlockedSampler = true
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

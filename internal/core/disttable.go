package core

import (
	"math"
	"sync"

	"mlprofile/internal/gazetteer"
)

// This file implements the two-level distance-amortization subsystem
// behind Config.DistTable (see DESIGN.md §7). The relationship factor
// d(x,y)^α is the sampler's dominant cost: the exact path pays a
// haversine, a log and an exp per candidate pair per edge per sweep. The
// distTable pays them once per distinct quantity instead:
//
//   level 1 — powTab: logMiles is quantized into fixed-width bins, the
//   distinct bins present among the gazetteer's city pairs are compacted
//   into dense ids, and d^α = exp(α·binRep) is memoized once per
//   (bin, α-epoch). The table is rebuilt (one exp per distinct bin)
//   whenever Gibbs-EM moves α.
//
//   level 2 — pairBin: the bin of a city pair never changes, so for
//   gazetteers up to maxDensePairCities the full L×L compact-bin matrix
//   is precomputed once per fit and the hot path reduces to two array
//   loads. Larger gazetteers serve row-walking kernels from sparse
//   per-city pow rows built lazily for the cities live candidate sets
//   actually pair (see below and DESIGN.md §14), and single lookups by
//   quantizing per lookup — the same values without any matrix.
//
// Everything the table serves is draw-for-draw aligned with the exact
// path: the kernels consume the RNG in the same order with the same
// number of draws, so a DistTable fit shadows the exact fit and can only
// diverge where quantization flips an inversion draw — the property the
// equivalence test layer (equivalence_test.go) locks down. That coupling
// is also why logBinWidth is far finer than the amortization needs: a
// single flipped draw perturbs two users' counts, the next Gibbs-EM
// refit amplifies the perturbed assignments into a shifted α, and the
// chains drift apart wholesale (measured: one flipped edge out of ~1600
// cost two points of top-1 agreement). Compacted bin ids make the fine
// width free: table size tracks the number of distinct city-pair bins,
// not the bin count.

const (
	// logBinWidth is the width of one log-distance bin in nats. The bin
	// representative is the bin center k·logBinWidth, so the worst-case
	// relative error of a memoized d^α is |α|·logBinWidth/2 — ~3·10⁻¹⁰ at
	// the paper's α=−0.55. The blocked kernel accumulates per-pair
	// quantization error across ~nI·nJ inversion boundaries per draw
	// (measured: ~0.3 flipped draws per fit at a 10⁻⁷ width), so the
	// width is set two orders finer, pushing the expected flips per fit
	// to ~10⁻³ and letting the DistTable chain shadow the exact chain end
	// to end. Compacted bin ids make the fine width free: table size
	// tracks distinct city-pair bins, not the bin count.
	//
	// Bin 0 is pinned to the paper's 1-mile measurement floor: every pair
	// with logMiles < logBinWidth/2 — in particular every sub-mile pair,
	// whose clamped log-distance is exactly 0 — lands in bin 0 with
	// representative log 0, so the table reproduces d^α = 1 exactly where
	// the exact path clamps (locked by TestDistTableSubMileClamp).
	logBinWidth = 1e-9

	// maxDensePairCities caps the dense L×L pair-bin matrix: 2048 cities
	// hold 2048²×4B = 16 MiB and cost ~2M haversines (a few hundred ms,
	// paid once per fit) to fill. Beyond that, row-walking kernels are
	// served from sparse per-city pow rows.
	maxDensePairCities = 2048

	// sparsePowBudgetBytes bounds the sparse pow-row cache per distTable
	// (and the quantized-log rows per gazetteer): 64 MiB holds rows for
	// 2048 distinct cities at L=4096. Rows beyond the budget evict FIFO;
	// an evicted row rebuilds on its next walk, so the budget trades
	// rebuild work for memory, never correctness.
	sparsePowBudgetBytes = 64 << 20
)

// MaxDensePairCities is the gazetteer-size ceiling of the dense pair-bin
// matrix, exported so callers (mlptrain's fallback log, the sharded
// pipeline) can report when a fit crosses it.
const MaxDensePairCities = maxDensePairCities

// DistTableStatus reports the distance-amortization state of a fitted
// model: whether the quantized table is active at all, and whether it is
// backed by the dense pair-bin matrix. Above MaxDensePairCities the
// table stays active without the dense matrix, served from sparse
// per-city pow rows (mlptrain logs when a fit crosses the ceiling).
func (m *Model) DistTableStatus() (active, dense bool) {
	if m.dt == nil {
		return false, false
	}
	return true, m.dt.pb != nil && m.dt.pb.pairBin != nil
}

// pairBins is the immutable pair→bin level for one gazetteer: the dense
// compact-bin matrix and the bin representatives, or — above the dense
// ceiling — the lazily built per-city quantized-log rows the sparse pow
// rows derive from. Distances never change, so this level depends only
// on the gazetteer and the bin width — it is shareable across every fit
// on the same gazetteer (CV folds, benches, the equivalence suite),
// which is what the pairBinCache below exploits. The α-dependent powTab
// and sparse pow rows stay per-distTable.
type pairBins struct {
	once sync.Once

	// pairBin[a*L+b] is the compact bin id of city pair (a, b).
	// Symmetric, diagonal in the logMiles=0 bin. Nil above the dense
	// ceiling.
	pairBin []uint32

	// binRep[id] is the representative log-distance (bin center) of
	// compact bin id.
	binRep []float64

	// Sparse level (L > maxDensePairCities only): qrows[a][l] is the
	// quantized log-distance quantLog(logMiles(a, l)) — α-independent,
	// so the rows survive Gibbs-EM α-epochs and are shared across fits
	// on the gazetteer. Bounded FIFO under the shared byte budget;
	// concurrent fits build under qmu.
	qmu    sync.Mutex
	qrows  map[int32][]float64
	qorder []int32
	qcap   int
}

// qrow returns city a's quantized-log row, building and caching it on
// first use. Safe for concurrent use; the L-haversine build happens
// under the lock, so concurrent walkers of one new city share a single
// build.
func (pb *pairBins) qrow(dc *distCalc, L int, a gazetteer.CityID) []float64 {
	pb.qmu.Lock()
	defer pb.qmu.Unlock()
	if pb.qrows == nil {
		pb.qrows = make(map[int32][]float64)
		pb.qcap = max(16, sparsePowBudgetBytes/(L*8))
	}
	if r, ok := pb.qrows[int32(a)]; ok {
		return r
	}
	r := make([]float64, L)
	for b := 0; b < L; b++ {
		r[b] = quantLog(dc.logMiles(a, gazetteer.CityID(b)))
	}
	pb.qrows[int32(a)] = r
	pb.qorder = append(pb.qorder, int32(a))
	if len(pb.qorder) > pb.qcap {
		delete(pb.qrows, pb.qorder[0])
		pb.qorder = pb.qorder[1:]
	}
	return r
}

// build quantizes every pair and compacts the distinct raw bins into
// dense ids on the fly (deterministic encounter order), so powTab and
// binRep scale with the number of distinct city-pair bins regardless of
// bin width and the build allocates nothing transient beyond the id map.
// Raw bins are 64-bit — the fine width overflows uint32 — but they only
// live as map keys. The diagonal stays at bin 0 (logMiles 0), registered
// first so id 0 is always the clamp bin.
func (pb *pairBins) build(dc *distCalc, L int) {
	pb.pairBin = make([]uint32, L*L)
	ids := make(map[uint64]uint32, L)
	idOf := func(bin uint64) uint32 {
		id, ok := ids[bin]
		if !ok {
			id = uint32(len(pb.binRep))
			ids[bin] = id
			pb.binRep = append(pb.binRep, float64(bin)*logBinWidth)
		}
		return id
	}
	idOf(0)
	for a := 0; a < L; a++ {
		for b := a + 1; b < L; b++ {
			id := idOf(uint64(binOfLog(dc.logMiles(gazetteer.CityID(a), gazetteer.CityID(b)))))
			pb.pairBin[a*L+b] = id
			pb.pairBin[b*L+a] = id
		}
	}
}

// pairBinCache memoizes the pair-bin level per gazetteer, so repeated
// fits on one corpus (CV folds, benches, the equivalence tests) stop
// re-paying the L² haversine build every Fit. Keyed by gazetteer pointer
// identity — Corpus.WithUsers shares the Gazetteer, so every fold of one
// world hits the same entry. Bounded FIFO: an entry is at most L²×4B
// (16 MiB at maxDensePairCities), and evicted entries stay valid for
// any fit still holding them (pairBins is immutable once built).
var pairBinCache = struct {
	mu      sync.Mutex
	entries map[*gazetteer.Gazetteer]*pairBins
	order   []*gazetteer.Gazetteer
}{entries: map[*gazetteer.Gazetteer]*pairBins{}}

const maxPairBinCacheEntries = 4

// pairBinsFor returns the (possibly cached) pair-bin level for g. The
// per-entry sync.Once lets concurrent fits on the same gazetteer share
// one build without holding the cache lock during the L² loop. Above
// the dense ceiling the matrix build is skipped: the entry then only
// carries the lazily built qrow level the sparse pow rows derive from.
func pairBinsFor(dc *distCalc, g *gazetteer.Gazetteer, L int) *pairBins {
	pairBinCache.mu.Lock()
	pb, ok := pairBinCache.entries[g]
	if !ok {
		pb = &pairBins{}
		pairBinCache.entries[g] = pb
		pairBinCache.order = append(pairBinCache.order, g)
		if len(pairBinCache.order) > maxPairBinCacheEntries {
			delete(pairBinCache.entries, pairBinCache.order[0])
			pairBinCache.order = pairBinCache.order[1:]
		}
	}
	pairBinCache.mu.Unlock()
	if L <= maxDensePairCities {
		pb.once.Do(func() { pb.build(dc, L) })
	}
	return pb
}

// distTable memoizes the power-law factor over quantized log-distances.
// It is built once per fit; powTab is rebuilt in place on every α-epoch.
// All methods except setAlpha are read-only and safe for concurrent use
// by the sweep workers (setAlpha only runs between sweeps).
type distTable struct {
	dc    *distCalc
	L     int
	alpha float64

	// pb is the shared pair→bin level. Its dense matrix (pb.pairBin) is
	// nil above maxDensePairCities; the α-independent qrow level backs
	// the sparse pow rows there.
	pb *pairBins

	// powTab[id] = exp(alpha·pb.binRep[id]) for the current α-epoch.
	// Nil without the dense matrix.
	powTab []float64

	// epoch counts α updates; per-edge caches (and sparse pow rows)
	// compare against it to invalidate their static values.
	epoch uint32

	// Sparse mode (L > maxDensePairCities; spRows is nil otherwise):
	// spRows[a].pow[b] = exp(alpha·quantLog(logMiles(a, b))) for the
	// row's stamped α-epoch — bit-identical to both the dense powTab
	// load and the single-lookup pow, so every representation yields
	// the same draws. Bounded FIFO; rows from a stale α-epoch rebuild
	// in place on their next walk. Guarded by spMu for the concurrent
	// sweep workers (setAlpha itself only runs between sweeps).
	spMu    sync.RWMutex
	spRows  map[int32]*sparsePowRow // guarded by spMu
	spOrder []int32                 // guarded by spMu
	spCap   int
}

// sparsePowRow is one lazily built pow row of the sparse level, stamped
// with the α-epoch it was exponentiated under. Both fields are
// reassigned in place by stale-row refreshes, so reads belong under
// spMu too — PR 9 shipped exactly that race (epoch/pow read outside
// the RLock), which is what the lockcheck annotations pin.
type sparsePowRow struct {
	epoch uint32    // guarded by spMu
	pow   []float64 // guarded by spMu
}

// powRow returns city a's full pow row in sparse mode, building it (or
// refreshing it after an α-epoch move) lazily from the shared quantized
// -log level. Row-walking kernels call it exactly where row(a) is nil.
// The read path is an RLock; builds double-check under the write lock
// so concurrent walkers of one new city share a single L-exp pass.
func (t *distTable) powRow(a gazetteer.CityID) []float64 {
	t.spMu.RLock()
	if r, ok := t.spRows[int32(a)]; ok && r.epoch == t.epoch {
		// Read the row fields under the lock: a concurrent stale-row
		// refresh reassigns them in place. The returned slice itself is
		// immutable once published (refreshes install a fresh slice).
		pow := r.pow
		t.spMu.RUnlock()
		return pow
	}
	t.spMu.RUnlock()
	q := t.pb.qrow(t.dc, t.L, a)
	t.spMu.Lock()
	defer t.spMu.Unlock()
	if r, ok := t.spRows[int32(a)]; ok && r.epoch == t.epoch {
		return r.pow
	}
	pow := make([]float64, t.L)
	for b, lm := range q {
		pow[b] = math.Exp(t.alpha * lm)
	}
	if r, ok := t.spRows[int32(a)]; ok {
		r.epoch, r.pow = t.epoch, pow
	} else {
		t.spRows[int32(a)] = &sparsePowRow{epoch: t.epoch, pow: pow}
		t.spOrder = append(t.spOrder, int32(a))
		if len(t.spOrder) > t.spCap {
			delete(t.spRows, t.spOrder[0])
			t.spOrder = t.spOrder[1:]
		}
	}
	return pow
}

// newDistTable builds the pair-bin level for the gazetteer behind dc,
// bypassing the cache (unit tests use it on throwaway gazetteers).
// powTab is not valid until the first setAlpha call.
func newDistTable(dc *distCalc, L int) *distTable {
	t := &distTable{dc: dc, L: L}
	if L <= maxDensePairCities {
		t.pb = &pairBins{}
		t.pb.once.Do(func() { t.pb.build(dc, L) })
	}
	return t
}

// distTableFor is the fit-time constructor: identical semantics to
// newDistTable, with the pair-bin level served from pairBinCache, plus
// the sparse pow-row level above the dense ceiling.
func distTableFor(dc *distCalc, g *gazetteer.Gazetteer) *distTable {
	L := g.Len()
	t := &distTable{dc: dc, L: L, pb: pairBinsFor(dc, g, L)}
	if L > maxDensePairCities {
		//mlp:allow lockcheck construction: t has not escaped to any worker yet
		t.spRows = make(map[int32]*sparsePowRow)
		t.spCap = max(16, sparsePowBudgetBytes/(L*8))
	}
	return t
}

// binOfLog maps a clamped log-distance to its raw bin: round(lm/width).
// lm = 0 (any sub-mile pair) maps to bin 0, whose representative is
// log 0 — the same value the exact path's clamp produces. Raw bins
// reach ~9.4e9 at the fine width, so they are int64 on every platform.
func binOfLog(lm float64) int64 {
	return int64(lm/logBinWidth + 0.5)
}

// quantLog is the quantized log-distance itself (the representative of
// lm's bin) — what single lookups above the dense ceiling feed exp.
func quantLog(lm float64) float64 {
	return float64(binOfLog(lm)) * logBinWidth
}

// setAlpha starts a new α-epoch: powTab is recomputed for the new
// exponent and the epoch counter advances, invalidating every per-edge
// cache lazily. Must not run concurrently with a sweep.
func (t *distTable) setAlpha(alpha float64) {
	t.alpha = alpha
	if t.pb != nil && t.pb.pairBin != nil {
		if t.powTab == nil {
			t.powTab = make([]float64, len(t.pb.binRep))
		}
		for i, lm := range t.pb.binRep {
			t.powTab[i] = math.Exp(alpha * lm)
		}
	}
	t.epoch++
}

// pow returns the memoized d(a,b)^α for the current α-epoch: two array
// loads in dense mode, a quantized exact evaluation above the ceiling.
// Single lookups stay on the quantized evaluation in sparse mode —
// materializing an L-wide pow row for one probe would cost more than it
// saves; row-walking kernels go through powRow instead.
func (t *distTable) pow(a, b gazetteer.CityID) float64 {
	if t.pb != nil && t.pb.pairBin != nil {
		return t.powTab[t.pb.pairBin[int(a)*t.L+int(b)]]
	}
	return math.Exp(t.alpha * quantLog(t.dc.logMiles(a, b)))
}

// row returns city a's dense compact-bin row, or nil without the dense
// matrix. Kernels hold the fixed endpoint's row so the per-candidate
// lookup is a single in-row load (the matrix is symmetric, so row-major
// access works for either side of the pair).
func (t *distTable) row(a gazetteer.CityID) []uint32 {
	if t.pb == nil || t.pb.pairBin == nil {
		return nil
	}
	return t.pb.pairBin[int(a)*t.L : int(a)*t.L+t.L]
}

// pow returns d(a,b)^α as the sampler sees it: memoized and quantized
// when the distance table is on, exact otherwise.
func (m *Model) pow(a, b gazetteer.CityID) float64 {
	if m.dt != nil {
		return m.dt.pow(a, b)
	}
	return m.dc.powDist(a, b, m.alpha)
}

// edgeCache is the per-edge static piece of the pruned blocked kernel's
// factored pair weights (see updateEdgeBlockedTable). For edge (I, J)
// with candidate sets candI/candJ it holds, per α-epoch,
//
//	gRow[i] = Σ_j γ_J[j] · d(candI[i], candJ[j])^α
//
// — the prior-side row sums of the pair-weight matrix. The dynamic part
// of a row sum touches only candidates with non-zero profile counts, so
// the per-sweep setup is O(nI + nJ + nI·kJ) with kJ = |supp ϕ_J| instead
// of the exact kernel's O(nI·nJ) pow calls.
type edgeCache struct {
	epoch uint32
	gRow  []float64
}

// edgeCacheFor returns edge s's cache, rebuilding its static row sums if
// the α-epoch moved. Within one sweep every edge is visited by exactly
// one worker, and sweeps are separated by barriers, so the lazy rebuild
// needs no synchronization.
func (m *Model) edgeCacheFor(s int, candI, candJ []gazetteer.CityID, gammaJ []float64) *edgeCache {
	ec := &m.etab[s]
	if ec.epoch == m.dt.epoch {
		return ec
	}
	if ec.gRow == nil {
		ec.gRow = make([]float64, len(candI))
	}
	pt := m.dt.powTab
	for i, ci := range candI {
		var sum float64
		if row := m.dt.row(ci); row != nil {
			for j, cj := range candJ {
				sum += gammaJ[j] * pt[row[cj]]
			}
		} else {
			prow := m.dt.powRow(ci)
			for j, cj := range candJ {
				sum += gammaJ[j] * prow[cj]
			}
		}
		ec.gRow[i] = sum
	}
	ec.epoch = m.dt.epoch
	return ec
}

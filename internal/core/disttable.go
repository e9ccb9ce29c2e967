package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mlprofile/internal/gazetteer"
)

// This file implements the sampler's distance layer (see DESIGN.md §7).
// The relationship factor d(x,y)^α is the sampler's dominant cost:
// evaluated per pair it takes a haversine, a log and an exp per
// candidate pair per edge per sweep. The sampler only ever pairs cities
// drawn from users' candidacy vectors (Sec. 4.3), so while Fit runs the
// distTable holds two dense matrices over that candidate universe,
// indexed by compact universe ids:
//
//   lm — the α-independent clamped log-distance logMiles(a, b), built
//   once per fit;
//
//   pm — exp(α·lm) for the current α-epoch, rebuilt whenever Gibbs-EM
//   moves α.
//
// Row-walking kernels hold the fixed endpoint's pm row and index it by
// the candidates' compact ids. Fit releases both matrices when it
// returns, and snapshot-loaded models never build them: every later
// reader uses the single lookup pow, powDist(a, b, α), which computes
// the same exp(α·logMiles(a, b)) and so equals the matrix entry bit for
// bit. Universes above maxDenseUniverse get no matrices; their kernels
// call pow per pair. Each city pair therefore has one d^α value
// wherever it is read, and whether a fit reads the matrices or single
// lookups never changes its chain.

// maxDenseUniverse caps the candidate universe the matrices are built
// for: at the cap the two U×U float64 matrices take 256 MiB while Fit
// runs. Larger universes serve single lookups.
const maxDenseUniverse = 4096

// DistTableStatus reports the distance-amortization state of a model:
// whether it has a distance table at all (every variant but MLP_C, which
// models no following relationships), the size of its candidate
// universe (the distinct cities of all candidacy vectors), and
// whether the fit's kernels read the dense universe matrices or single
// lookups. A fitted model keeps reporting its fit's state after Fit
// releases the matrices; a snapshot-loaded model, which never builds
// them, reports single lookups.
func (m *Model) DistTableStatus() (active bool, universe int, dense bool) {
	if m.dt == nil {
		return false, 0, false
	}
	return true, m.dt.U, m.dt.dense
}

// distTable memoizes the power-law factor over the candidate universe.
// It is built once per fit; pm is rebuilt in place on every α-epoch.
// All methods except setAlpha and release are read-only and safe for
// concurrent use by the sweep's shards (setAlpha only runs between
// sweeps, release after the last).
type distTable struct {
	dc    *distCalc
	alpha float64

	// epoch counts α updates; per-edge caches compare against it to
	// invalidate their static values.
	epoch uint32

	// U is the universe size and dense whether the matrices were built
	// for it. Both outlive release.
	U     int
	dense bool

	// uid[l] is city l's compact universe id, −1 outside the universe.
	// lm[a*U+b] is logMiles of the cities with compact ids a and b, and
	// pm[a*U+b] = exp(alpha·lm[a*U+b]) for the current α-epoch. All
	// three are nil without the matrices.
	uid    []int32
	lm, pm []float64
}

// newDistTable assigns compact ids to the candidate universe of cand
// and, when it holds at most maxU cities, builds the matrices. pm is not
// valid until the first setAlpha call.
func newDistTable(dc *distCalc, L int, cand [][]gazetteer.CityID, maxU int) *distTable {
	uid, cities := universeIDs(L, cand)
	U := len(cities)
	t := &distTable{dc: dc, U: U, dense: U <= maxU}
	if !t.dense {
		return t
	}
	t.uid = uid
	t.lm, t.pm = make([]float64, U*U), make([]float64, U*U)
	fillSymmetric(t.lm, U, func(a int, upper []float64) {
		for i := range upper {
			upper[i] = dc.logMiles(cities[a], cities[a+i])
		}
	})
	return t
}

// mirrorTile is the side of the square tiles fillSymmetric mirrors in,
// sized so a tile's source rows stay cache-resident.
const mirrorTile = 64

// fillSymmetric fills the symmetric U×U matrix m: upper(a, row) fills
// row a's upper part, m[a*U+a : (a+1)*U] (diagonal first), one row per
// call across GOMAXPROCS, and a tiled pass then mirrors the upper
// triangle into the lower one. Only the matrix's own values are copied,
// so the result equals filling every row in full — logMiles is bitwise
// symmetric — at half the haversines and exps.
func fillSymmetric(m []float64, U int, upper func(a int, row []float64)) {
	forRows(U, func(a int) { upper(a, m[a*U+a:(a+1)*U]) })
	forRows((U+mirrorTile-1)/mirrorTile, func(ti int) {
		a0, a1 := ti*mirrorTile, min((ti+1)*mirrorTile, U)
		for b0 := 0; b0 < a1; b0 += mirrorTile {
			for a := a0; a < a1; a++ {
				row := m[a*U : a*U+a]
				for b := b0; b < min(b0+mirrorTile, a); b++ {
					row[b] = m[b*U+a]
				}
			}
		}
	})
}

// universeIDs assigns compact ids to the distinct cities of cand in
// first-seen order: users in order, then each user's candidates in
// order. uid[l] is −1 for cities outside the universe; cities lists the
// universe by compact id.
func universeIDs(L int, cand [][]gazetteer.CityID) (uid []int32, cities []gazetteer.CityID) {
	uid = make([]int32, L)
	for l := range uid {
		uid[l] = -1
	}
	for _, cs := range cand {
		for _, l := range cs {
			if uid[l] < 0 {
				uid[l] = int32(len(cities))
				cities = append(cities, l)
			}
		}
		if len(cities) == L {
			break
		}
	}
	return uid, cities
}

// forRows runs f(a) for every row a in [0, n), split across GOMAXPROCS
// goroutines that claim rows from a shared counter, since rows can
// differ in cost. Each row is written by exactly one goroutine, so the
// values never depend on the split.
func forRows(n int, f func(a int)) {
	p := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := int(next.Add(1) - 1); a < n; a = int(next.Add(1) - 1) {
				f(a)
			}
		}()
	}
	wg.Wait()
}

// setAlpha starts a new α-epoch: pm, while the matrices are live, is
// recomputed for the new exponent, and the epoch counter advances,
// invalidating every per-edge cache lazily. Must not run concurrently
// with a sweep.
func (t *distTable) setAlpha(alpha float64) {
	t.alpha = alpha
	if t.pm != nil {
		U := t.U
		fillSymmetric(t.pm, U, func(a int, upper []float64) {
			for i, lm := range t.lm[a*U+a : (a+1)*U] {
				upper[i] = math.Exp(alpha * lm)
			}
		})
	}
	t.epoch++
}

// release drops the matrices once the sweeps are done. The table keeps
// serving single lookups and reporting its status.
func (t *distTable) release() {
	t.uid, t.lm, t.pm = nil, nil, nil
}

// pow returns d(a,b)^α for the current α-epoch: a matrix load while
// both cities have compact ids, powDist otherwise — the same value.
func (t *distTable) pow(a, b gazetteer.CityID) float64 {
	if t.pm != nil {
		if ua, ub := t.uid[a], t.uid[b]; ua >= 0 && ub >= 0 {
			return t.pm[int(ua)*t.U+int(ub)]
		}
	}
	return t.dc.powDist(a, b, t.alpha)
}

// row returns candidate city a's pow row, indexed by compact id (uid),
// or nil without the matrices. Kernels hold the fixed endpoint's row so
// the per-candidate lookup is a single in-row load (pm is symmetric,
// so row-major access works for either side of the pair).
func (t *distTable) row(a gazetteer.CityID) []float64 {
	if t.pm == nil {
		return nil
	}
	u := int(t.uid[a])
	return t.pm[u*t.U : u*t.U+t.U]
}

// edgeCache is the per-edge static piece of the blocked kernel's
// factored pair weights (see updateEdgeBlocked). For edge (I, J)
// with candidate sets candI/candJ it holds, per α-epoch,
//
//	gRow[i] = Σ_j γ_J[j] · d(candI[i], candJ[j])^α
//
// — the prior-side row sums of the pair-weight matrix. The dynamic part
// of a row sum touches only candidates with non-zero profile counts, so
// the per-sweep setup is O(nI + nJ + nI·kJ) with kJ = |supp ϕ_J| instead
// of the joint's O(nI·nJ) pair weights.
type edgeCache struct {
	epoch uint32
	gRow  []float64
}

// edgeCacheFor returns edge s's cache, rebuilding its static row sums if
// the α-epoch moved. Within one sweep every edge is visited by exactly
// one stream, and sweeps are separated by barriers, so the lazy rebuild
// needs no synchronization.
func (m *Model) edgeCacheFor(s int, candI, candJ []gazetteer.CityID, gammaJ []float64) *edgeCache {
	ec := &m.etab[s]
	if ec.epoch == m.dt.epoch {
		return ec
	}
	if ec.gRow == nil {
		ec.gRow = make([]float64, len(candI))
	}
	uid := m.dt.uid
	for i, ci := range candI {
		var sum float64
		if row := m.dt.row(ci); row != nil {
			for j, cj := range candJ {
				sum += gammaJ[j] * row[uid[cj]]
			}
		} else {
			for j, cj := range candJ {
				sum += gammaJ[j] * m.dt.pow(ci, cj)
			}
		}
		ec.gRow[i] = sum
	}
	ec.epoch = m.dt.epoch
	return ec
}

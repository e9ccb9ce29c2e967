package core

import (
	"math/bits"
	"math/rand"
	"sort"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
)

// sweepCtx carries one sampler stream's mutable state: its RNG and the
// draw arena the update kernels write into, so the hot path performs no
// per-relationship allocations. The sequential sampler owns a single ctx
// wrapping the model RNG; Shards>1 gives every shard its own ctx with an
// independent stream-seeded RNG (see DESIGN.md §6).
type sweepCtx struct {
	m   *Model
	rng *rand.Rand

	// arena unifies every draw-pipeline scratch slice of this stream —
	// prefix-sum and blocked-kernel buffers (drawarena.go). Per-shard like
	// the RNG, so no two shards share mutable state inside a color class.
	arena drawArena

	// Deferred venue-count overlay, non-nil only on shard ctxs: during
	// the shard phase the model's venue counts are frozen (shared reads,
	// no writes) and each shard accumulates its own ±1 deltas here,
	// reading them back through psi so it still sees its own updates.
	// Deltas are folded into the model after the phase barrier; the
	// counts are integer-valued, so the fold order cannot change the
	// result. ovl holds venue-major delta rows matching the model's
	// store, ovlSum the flat per-city sum deltas, and ovlVenues/ovlCities
	// the dirty lists that make the fold and the clear O(touched) instead
	// of O(|V|+L).
	ovl       *psiStore
	ovlSum    []float64
	ovlVenues []int32
	ovlCities []int32

	// Epoch-stamped gather scratch of the venue-major store, sized |L|
	// (see gatherPsi): gcells[l] holds the count gathered for the
	// current tweet's venue iff its stamp equals gepoch.
	gcells []psiGatherCell
	gepoch uint64

	// batch is the per-author tweet-draw batching state (tweetbatch.go).
	batch tweetBatch
}

// shiftVenue moves one venue observation count at location l by d,
// either directly on the model (sequential) or into the shard's
// deferred overlay (sharded).
func (c *sweepCtx) shiftVenue(l gazetteer.CityID, v gazetteer.VenueID, d float64) {
	if c.ovl == nil {
		c.m.shiftVenue(l, v, d)
		return
	}
	if c.ovl.accumDelta(v, l, d) {
		c.ovlVenues = append(c.ovlVenues, int32(v))
	}
	if c.ovlSum[l] == 0 {
		// First touch of this city, or a delta that had returned to
		// zero: either way register it; fold dedupes for free because
		// re-folding a zeroed entry is a no-op.
		c.ovlCities = append(c.ovlCities, int32(l))
	}
	c.ovlSum[l] += d
}

// psi is ψ̂_l(v) as seen by this stream: the model's collapsed estimate,
// plus the shard's own pending deltas when running deferred.
func (c *sweepCtx) psi(l gazetteer.CityID, v gazetteer.VenueID) float64 {
	m := c.m
	if c.ovl == nil {
		return m.psi(l, v)
	}
	return m.psiFrom(m.ps.get(v, l)+c.ovl.get(v, l), m.venueSum[l]+c.ovlSum[l])
}

// ensureOverlay allocates the shard's deferred venue overlay on first
// use.
func (c *sweepCtx) ensureOverlay() {
	if c.ovl == nil {
		m := c.m
		c.ovl = newPsiStore(m.numVenues)
		c.ovlSum = make([]float64, len(m.venueSum))
	}
}

// colorEdgesSubset greedily assigns each of the given edges, visited in
// slice order, the smallest color unused at either endpoint (≤ 2Δ−1
// colors for maximum degree Δ) and returns the color classes sorted by
// size, descending. Within one class no two edges share a user, so the
// class is a matching whose edges can be resampled concurrently without
// two updates touching the same user's ϕ counts; the sharded sweep
// colors its boundary-edge set this way.
func colorEdgesSubset(c *dataset.Corpus, subset []int32) [][]int32 {
	used := make([][]uint64, len(c.Users)) // per-user color bitset
	setBit := func(u dataset.UserID, col int) {
		w := col / 64
		for len(used[u]) <= w {
			used[u] = append(used[u], 0)
		}
		used[u][w] |= 1 << (col % 64)
	}
	colorOf := make([]int32, len(subset))
	numColors := int32(0)
	for i, s := range subset {
		e := c.Edges[s]
		a, b := used[e.From], used[e.To]
		col := 0
		for w := 0; ; w++ {
			var v uint64
			if w < len(a) {
				v = a[w]
			}
			if w < len(b) {
				v |= b[w]
			}
			if v != ^uint64(0) {
				col = w*64 + bits.TrailingZeros64(^v)
				break
			}
		}
		colorOf[i] = int32(col)
		setBit(e.From, col)
		setBit(e.To, col)
		if int32(col)+1 > numColors {
			numColors = int32(col) + 1
		}
	}
	classes := make([][]int32, numColors)
	for i, col := range colorOf {
		classes[col] = append(classes[col], subset[i])
	}
	sort.SliceStable(classes, func(i, j int) bool {
		return len(classes[i]) > len(classes[j])
	})
	return classes
}

// foldVenueDeltasFrom applies every ctx's deferred venue deltas to the
// model. All deltas are exact (integer-valued ±1 sums), and a shard can
// never net-remove more mass from a (city, venue) cell than its own
// tweets held there at phase start, so folding shard by shard keeps
// every intermediate count non-negative and the final counts equal to
// what immediate application would have produced. The venue-major
// overlay folds by walking each ctx's dirty-venue list — O(touched)
// rather than O(|V|) — and reuses row capacity across sweeps.
func (m *Model) foldVenueDeltasFrom(ctxs []*sweepCtx) {
	for _, ctx := range ctxs {
		if ctx.ovl == nil {
			continue
		}
		for _, v := range ctx.ovlVenues {
			r := &ctx.ovl.rows[v]
			for i, l := range r.cities {
				if r.vals[i] != 0 {
					m.ps.add(gazetteer.VenueID(v), gazetteer.CityID(l), r.vals[i])
				}
			}
			r.reset()
		}
		ctx.ovlVenues = ctx.ovlVenues[:0]
		for _, l := range ctx.ovlCities {
			m.venueSum[l] += ctx.ovlSum[l]
			m.venueRSum[l] = 1 / (m.venueSum[l] + m.deltaTotal)
			ctx.ovlSum[l] = 0
		}
		ctx.ovlCities = ctx.ovlCities[:0]
	}
}

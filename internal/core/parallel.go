package core

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/randutil"
)

// sweepCtx carries one sampler stream's mutable state: its RNG and the
// draw arena the update kernels write into, so the hot path performs no
// per-relationship allocations. The sequential sampler owns a single ctx
// wrapping the model RNG; Workers>1 gives every worker its own ctx with
// an independent stream-seeded RNG (see DESIGN.md §6).
type sweepCtx struct {
	m   *Model
	rng *rand.Rand

	// arena unifies every draw-pipeline scratch slice of this stream —
	// weight, prefix-sum, and blocked-kernel buffers (drawarena.go).
	// Per-worker like the RNG, so no two workers share mutable state
	// inside a color class.
	arena drawArena

	// Deferred venue-count overlay, non-nil only on parallel workers:
	// during a parallel tweet phase the model's venue counts are frozen
	// (shared reads, no writes) and each worker accumulates its own
	// ±1 deltas here, reading them back through psi so it still sees its
	// own updates. Deltas are folded into the model after the phase
	// barrier; the counts are integer-valued, so the fold order cannot
	// change the result. ovl holds venue-major delta rows matching the
	// model's store, ovlSum the flat per-city sum deltas, and
	// ovlVenues/ovlCities the dirty lists that make the fold and the
	// clear O(touched) instead of O(|V|+L).
	ovl       *psiStore
	ovlSum    []float64
	ovlVenues []int32
	ovlCities []int32

	// Epoch-stamped gather scratch of the venue-major store, sized |L|
	// (see gatherPsi): gcells[l] holds the count gathered for the
	// current tweet's venue iff its stamp equals gepoch.
	gcells []psiGatherCell
	gepoch uint64

	// stale collects the deferred remote-side ϕ ops of the sharded
	// stale-boundary protocol (see shard.go); empty outside it.
	stale []staleOp

	// batch is the per-author tweet-draw batching state (tweetbatch.go).
	batch tweetBatch
}

// shiftVenue moves one venue observation count at location l by d,
// either directly on the model (sequential) or into the worker's
// deferred overlay (parallel).
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
// plus the worker's own pending deltas when running deferred.
func (c *sweepCtx) psi(l gazetteer.CityID, v gazetteer.VenueID) float64 {
	m := c.m
	if c.ovl == nil {
		return m.psi(l, v)
	}
	return m.psiFrom(m.ps.get(v, l)+c.ovl.get(v, l), m.venueSum[l]+c.ovlSum[l])
}

// ensureOverlay allocates the worker's deferred venue overlay on first
// use.
func (c *sweepCtx) ensureOverlay() {
	if c.ovl == nil {
		m := c.m
		c.ovl = newPsiStore(m.numVenues)
		c.ovlSum = make([]float64, len(m.venueSum))
	}
}

// sweepPlan is the static partition of the corpus for Workers-way sweeps,
// built once per Fit.
//
// Edges: a greedy coloring over the follower/friend endpoints. Within one
// color class no two edges share a user, so the class is a matching whose
// edges can be resampled concurrently without two updates touching the
// same user's ϕ counts. Classes are ordered largest-first so the bulk of
// the work fans out wide.
//
// Tweets: tweet indices grouped by author and the authors distributed
// over the workers longest-processing-time-first, so each shard is
// user-disjoint from every other and no two workers touch the same ϕ
// counts. Venue counts cross users, which is why the parallel tweet phase
// runs on the deferred overlay above.
type sweepPlan struct {
	edgeClasses [][]int32
	tweetShards [][]int32
}

func buildSweepPlan(c *dataset.Corpus, workers int, useF, useT bool) *sweepPlan {
	p := &sweepPlan{}
	if useF && len(c.Edges) > 0 {
		p.edgeClasses = colorEdges(c)
	}
	if useT && len(c.Tweets) > 0 {
		p.tweetShards = shardTweets(c, workers)
	}
	return p
}

// colorEdges greedily assigns each edge the smallest color unused at
// either endpoint (≤ 2Δ−1 colors for maximum degree Δ) and returns the
// color classes sorted by size, descending.
func colorEdges(c *dataset.Corpus) [][]int32 {
	all := make([]int32, len(c.Edges))
	for i := range all {
		all[i] = int32(i)
	}
	return colorEdgesSubset(c, all)
}

// colorEdgesSubset colors only the given edge indices, visiting them in
// slice order. colorEdges delegates here with all indices in corpus
// order, so the full-corpus classes (which the Workers>1 golden
// fingerprints depend on) are unchanged; the sharded sampler reuses the
// same machinery for its boundary-edge set.
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

// shardTweets distributes authors over the workers, heaviest first, and
// returns each shard's tweet indices (each author's tweets stay in corpus
// order on a single shard).
func shardTweets(c *dataset.Corpus, workers int) [][]int32 {
	perUser := make([][]int32, len(c.Users))
	for k, t := range c.Tweets {
		perUser[t.User] = append(perUser[t.User], int32(k))
	}
	authors := make([]dataset.UserID, 0, len(c.Users))
	for u := range perUser {
		if len(perUser[u]) > 0 {
			authors = append(authors, dataset.UserID(u))
		}
	}
	sort.SliceStable(authors, func(i, j int) bool {
		ti, tj := len(perUser[authors[i]]), len(perUser[authors[j]])
		if ti != tj {
			return ti > tj
		}
		return authors[i] < authors[j]
	})
	shards := make([][]int32, workers)
	load := make([]int, workers)
	for _, u := range authors {
		w := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		shards[w] = append(shards[w], perUser[u]...)
		load[w] += len(perUser[u])
	}
	return shards
}

// sweepParallel runs one Gibbs sweep across the worker pool: edge color
// classes one after another, each fanned out over endpoint-disjoint
// chunks, then the user-disjoint tweet shards under the deferred venue
// overlay. For a fixed (Seed, Workers) the result is deterministic: the
// partition is static, each worker's RNG stream is seeded from
// (Seed, sweep, worker), and concurrent phases touch disjoint state.
func (m *Model) sweepParallel() {
	if m.plan == nil {
		m.plan = buildSweepPlan(m.corpus, m.cfg.Workers, m.useF, m.useT)
		m.parCtxs = make([]*sweepCtx, m.cfg.Workers)
		for w := range m.parCtxs {
			m.parCtxs[w] = &sweepCtx{m: m}
		}
	}
	W := m.cfg.Workers
	for w, ctx := range m.parCtxs {
		ctx.rng = randutil.Stream(m.cfg.Seed, uint64(m.curIter)<<16|uint64(w))
	}

	if m.useF {
		m.phase("edge", func() {
			update := m.updateEdge
			if m.cfg.BlockedSampler {
				update = m.updateEdgeBlocked
			}
			var wg sync.WaitGroup
			for _, class := range m.plan.edgeClasses {
				// Tiny classes are not worth a fan-out barrier; worker 0's
				// stream absorbs them.
				if len(class) < 2*W {
					for _, s := range class {
						update(m.parCtxs[0], int(s))
					}
					continue
				}
				per := (len(class) + W - 1) / W
				for w := 0; w < W; w++ {
					lo := w * per
					hi := min(lo+per, len(class))
					if lo >= hi {
						break
					}
					wg.Add(1)
					go func(ctx *sweepCtx, part []int32) {
						defer wg.Done()
						for _, s := range part {
							update(ctx, int(s))
						}
					}(m.parCtxs[w], class[lo:hi])
				}
				wg.Wait()
			}
		})
	}

	// Note the length guard: a tweetless corpus (legal for Full as long
	// as it has edges) gets no tweet shards from buildSweepPlan.
	if m.useT && len(m.plan.tweetShards) > 0 {
		m.phase("tweet", func() {
			var wg sync.WaitGroup
			for w := 0; w < W; w++ {
				shard := m.plan.tweetShards[w]
				if len(shard) == 0 {
					continue
				}
				ctx := m.parCtxs[w]
				ctx.ensureOverlay()
				wg.Add(1)
				go func(ctx *sweepCtx, shard []int32) {
					defer wg.Done()
					for _, k := range shard {
						m.updateTweet(ctx, int(k))
					}
				}(ctx, shard)
			}
			wg.Wait()
		})
		m.phase("fold", m.foldVenueDeltas)
	}
}

// foldVenueDeltas applies every worker's deferred venue deltas to the
// model. All deltas are exact (integer-valued ±1 sums), and a worker can
// never net-remove more mass from a (city, venue) cell than its own
// tweets held there at phase start, so folding worker by worker keeps
// every intermediate count non-negative and the final counts equal to
// what immediate application would have produced. The venue-major
// overlay folds by walking each worker's dirty-venue list — O(touched)
// rather than O(|V|) — and reuses row capacity across sweeps.
func (m *Model) foldVenueDeltas() { m.foldVenueDeltasFrom(m.parCtxs) }

// foldVenueDeltasFrom is foldVenueDeltas over an explicit ctx set — the
// sharded sweep folds its per-shard ctxs through the same code path.
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

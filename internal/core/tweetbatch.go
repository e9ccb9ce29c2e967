package core

import (
	"mlprofile/internal/gazetteer"
)

// This file implements the per-author venue-count cache the tweet
// kernel (updateTweet) reads its ψ̂ counts from (see DESIGN.md §14).
// Consecutive tweets of one author share the same candidate set, and
// between two of the author's own draws nothing this stream can see
// mutates the venue counts — the sequential chain interleaves no other
// author inside the run, and a shard's stream reads frozen base counts
// plus its own private overlay. The kernel therefore gathers each
// venue's per-candidate counts once per (author, venue) into a small
// per-stream cache and reuses them across the author's tweet run.
// Deliberately, only the *counts* are cached, never the smoothed ψ̂
// values derived from them: ψ̂'s denominator (the per-city venue sum)
// moves whenever any of the author's draws shifts any venue at that
// city, so a cached ψ̂ would need an all-entries repair per accepted
// move — measured as a net pessimization. Counts are venue-local, so a move repairs exactly
// one entry at one index, and the fill recomputes ψ̂ from the cached
// count and the always-current maintained reciprocal. Every value fed to
// a draw equals a fresh per-draw gather's, so only the probe/gather work
// is amortized (TestTweetBatchBoundaryInvalidation drives the repair
// edge under eviction).

// tweetBatchEntries is the per-stream cache size. It should cover a
// typical author's distinct-venue working set within one run (the bench
// world sits near 20–30 venues per active user); eviction is
// round-robin and an evicted entry rebuilds from the live counts, so
// the size trades gather work for scratch memory (≤ nCand×8B per
// entry), never correctness. Must stay ≤ 256: slots are addressed by
// uint8 in the per-venue index.
const tweetBatchEntries = 64

// batchEntry caches one venue's per-candidate counts for the current
// author — the base store row plus, on a shard, its own overlay
// deltas — maintained current by tweetBatch.shift as the author's draws
// move counts.
type batchEntry struct {
	venue gazetteer.VenueID
	cnt   []float64
}

// tweetBatch is one sampler stream's batching state, embedded in its
// sweepCtx. A batch is valid for exactly one (sweep, author) run: iter
// catches the phase boundary (barrier folds and other streams mutate
// base counts between sweeps), user the author switch (other authors'
// sequential draws mutate counts between runs).
//
// Entry lookup is O(1) via an epoch-stamped per-venue index (vstamp /
// vslot, lazily sized to the venue inventory): a venue's slot is valid
// only when its stamp equals the current epoch, and resetFor
// invalidates the whole index by bumping the epoch — no per-run
// clearing. The earlier linear slot scan was measured to burn the
// batching win on scan compares (two lookups per draw: fill and
// ν-step).
type tweetBatch struct {
	iter int
	user int32

	entries [tweetBatchEntries]batchEntry
	n       int // live entries this epoch
	evict   int // next round-robin eviction slot

	epoch  uint32   // current (sweep, author) run generation, ≥1 once used
	vstamp []uint32 // per-venue: epoch the venue's slot belongs to
	vslot  []uint8  // per-venue: slot index, valid iff vstamp matches

	// Amortized θ̂ denominator: the ν-step divides by ϕ_u+Σγ_u once per
	// draw, but the value only moves when a µ/ν flip shifts ϕ_u inside
	// the run. Caching the reciprocal keyed on the denominator value
	// folds those divisions into one per change. num·(1/den) can differ
	// from num/den by one ulp, far inside the equivalence tolerance.
	thetaDen  float64
	thetaRDen float64

	built   int64 // entries gathered
	hits    int64 // entries reused
	repairs int64 // in-place count/ψ̂ repairs after own draws
}

// resetFor invalidates every entry and rebinds the batch to one
// (sweep, author) run. Invalidation is one epoch bump — the per-venue
// stamps all stop matching; entry slots (and their cnt capacity) are
// recycled in place by the next gathers.
func (b *tweetBatch) resetFor(user int32, iter int) {
	b.epoch++
	if b.epoch == 0 { // uint32 wrap: stale stamps could collide; wipe them
		clear(b.vstamp)
		b.epoch = 1
	}
	b.n = 0
	b.evict = 0
	b.user = user
	b.iter = iter
	b.thetaDen = 0
	b.thetaRDen = 0
}

// entryFor returns the current author's cached entry for venue v,
// gathering counts into a (possibly recycled) slot on miss. The gather
// resolves the exact counts — via the store row walk or direct probes,
// whichever is cheaper (psiGatherWorthwhile), overlay deltas included
// on a shard — so reading the entry is bit-identical to re-probing.
func (b *tweetBatch) entryFor(ctx *sweepCtx, v gazetteer.VenueID, cand []gazetteer.CityID) *batchEntry {
	m := ctx.m
	if int(v) >= len(b.vstamp) {
		// Lazy index sizing (and resize after a corpus swap): stamps
		// zero, which never matches an epoch ≥ 1.
		grown := make([]uint32, len(m.ps.rows))
		copy(grown, b.vstamp)
		b.vstamp = grown
		slots := make([]uint8, len(m.ps.rows))
		copy(slots, b.vslot)
		b.vslot = slots
	}
	if b.vstamp[v] == b.epoch {
		b.hits++
		return &b.entries[b.vslot[v]]
	}
	var slot int
	if b.n < tweetBatchEntries {
		slot = b.n
		b.n++
	} else {
		slot = b.evict
		b.evict = (b.evict + 1) % tweetBatchEntries
		// Unmap the evicted slot's venue so its next lookup rebuilds.
		if old := b.entries[slot].venue; b.vstamp[old] == b.epoch {
			b.vstamp[old] = 0
		}
	}
	e := &b.entries[slot]
	b.vstamp[v] = b.epoch
	b.vslot[v] = uint8(slot)
	e.venue = v
	if cap(e.cnt) < len(cand) {
		e.cnt = make([]float64, len(cand))
	}
	e.cnt = e.cnt[:len(cand)]

	if ctx.psiGatherWorthwhile(v, len(cand)) {
		ctx.gatherPsi(v)
		gcells, ep := ctx.gcells, ctx.gepoch
		for c, l := range cand {
			var cnt float64
			if cell := &gcells[l]; cell.stamp == ep {
				cnt = cell.cnt
			}
			e.cnt[c] = cnt
		}
	} else {
		base := &m.ps.rows[v]
		if ctx.ovl == nil {
			for c, l := range cand {
				e.cnt[c] = base.get(int32(l))
			}
		} else {
			orow := &ctx.ovl.rows[v]
			for c, l := range cand {
				e.cnt[c] = base.get(int32(l)) + orow.get(int32(l))
			}
		}
	}
	b.built++
	return e
}

// shift applies one ±1 venue-count move of the author's own draw — the
// store write plus the in-place batch repair. Counts are venue-local,
// so the delta hits exactly the matching venue's entry at candidate
// index ci (venues are unique across entries; other venues' counts at
// that city are untouched — only their ψ̂ denominator moved, and ψ̂ is
// recomputed from live sums at fill time, never cached).
func (b *tweetBatch) shift(ctx *sweepCtx, cand []gazetteer.CityID, ci int, v gazetteer.VenueID, d float64) {
	ctx.shiftVenue(cand[ci], v, d)
	if int(v) < len(b.vstamp) && b.vstamp[v] == b.epoch {
		b.entries[b.vslot[v]].cnt[ci] += d
		b.repairs++
	}
}

// theta is Model.theta with the division amortized through the cached
// reciprocal (see the field comment).
func (b *tweetBatch) theta(m *Model, u int32, idx int, excludeSelf bool) float64 {
	num := m.phi[u][idx] + m.cands.gamma[u][idx]
	den := m.phiSum[u] + m.cands.gammaSum[u]
	if excludeSelf {
		num--
		den--
	}
	if num < 0 {
		num = 0
	}
	if den <= 0 {
		return 0
	}
	if den != b.thetaDen {
		b.thetaDen = den
		b.thetaRDen = 1 / den
	}
	return num * b.thetaRDen
}

// TweetBatchStats aggregates the batching layer's counters across every
// sampler stream of a fit: entries gathered, entries reused, and
// in-place repairs after the author's own draws. All zero for models
// without tweeting observations and for snapshot-loaded models.
type TweetBatchStats struct {
	Built, Hits, Repairs int64
}

// TweetBatchStats returns the fit's aggregated batching counters. Safe
// to call between sweeps or after Fit (the per-stream counters are only
// written inside a sweep phase).
func (m *Model) TweetBatchStats() TweetBatchStats {
	var s TweetBatchStats
	add := func(ctx *sweepCtx) {
		if ctx == nil {
			return
		}
		s.Built += ctx.batch.built
		s.Hits += ctx.batch.hits
		s.Repairs += ctx.batch.repairs
	}
	add(m.seq)
	for _, ctx := range m.shCtxs {
		add(ctx)
	}
	return s
}

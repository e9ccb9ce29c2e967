package core

import (
	"sync"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/randutil"
)

// This file implements the sharded Gibbs sweep (Config.Shards > 1, see
// DESIGN.md §11): users are partitioned across S shards by the stable
// hash dataset.ShardOf, each shard sweeps its own slice of the corpus
// concurrently on its own RNG stream, and the edges that cross shards
// are handled by one of two boundary protocols:
//
//   - synced (default): boundary edges are excluded from the shard phase
//     and resampled after its barrier, fanned out over the greedy color
//     classes of the boundary subgraph — every read is against folded,
//     up-to-date counts.
//   - stale (Config.StaleBoundary): each shard walks ALL its owned edges
//     in corpus order; boundary edges read the remote endpoint's ϕ from
//     a sweep-start snapshot and defer their remote-side writes to the
//     barrier (Hogwild-style bounded staleness, but race-free and
//     deterministic because the writes are ordered ops, not racing
//     stores).
//
// Both protocols are deterministic for a fixed (Seed, Shards) pair.

// shardPlan is the static partition of the corpus for Shards-way sweeps,
// built once per Fit.
type shardPlan struct {
	// shardOf maps every user to its owning shard (dataset.ShardOf).
	shardOf []int32
	// intra[s] holds shard s's intra-shard edge indices (both endpoints
	// on s), in corpus order — the synced protocol's shard-phase walk.
	intra [][]int32
	// owned[s] holds ALL edge indices owned by shard s (owner = the
	// follower's shard), in corpus order — the stale protocol's walk.
	owned [][]int32
	// boundary holds the cross-shard edge indices in corpus order, and
	// bclasses their greedy coloring (colorEdgesSubset): within one class
	// no two edges share a user, so a class resamples concurrently.
	boundary []int32
	bclasses [][]int32
	// staleUsers lists every user appearing as the friend side of a
	// boundary edge — the rows the stale snapshot must copy.
	staleUsers []int32
	// tweets[s] holds shard s's tweet indices (by author), corpus order.
	tweets [][]int32
}

func buildShardPlan(c *dataset.Corpus, shards int, useF, useT bool) *shardPlan {
	p := &shardPlan{shardOf: make([]int32, len(c.Users))}
	for u := range c.Users {
		p.shardOf[u] = int32(dataset.ShardOf(dataset.UserID(u), shards))
	}
	if useF && len(c.Edges) > 0 {
		p.intra = make([][]int32, shards)
		p.owned = make([][]int32, shards)
		seen := make([]bool, len(c.Users))
		for s, e := range c.Edges {
			own := p.shardOf[e.From]
			p.owned[own] = append(p.owned[own], int32(s))
			if p.shardOf[e.To] == own {
				p.intra[own] = append(p.intra[own], int32(s))
			} else {
				p.boundary = append(p.boundary, int32(s))
				if !seen[e.To] {
					seen[e.To] = true
					p.staleUsers = append(p.staleUsers, int32(e.To))
				}
			}
		}
		if len(p.boundary) > 0 {
			p.bclasses = colorEdgesSubset(c, p.boundary)
		}
	}
	if useT && len(c.Tweets) > 0 {
		p.tweets = make([][]int32, shards)
		for k, t := range c.Tweets {
			own := p.shardOf[t.User]
			p.tweets[own] = append(p.tweets[own], int32(k))
		}
	}
	return p
}

// staleOp is one deferred remote-side ϕ mutation of the stale boundary
// protocol: phi[u][idx] += d (and phiSum[u], and the ϕ+γ mirror).
type staleOp struct {
	u   dataset.UserID
	idx int32
	d   float64
}

// sweepSharded runs one Gibbs sweep under the shard partition. Shard
// phase: S goroutines, shard s resampling its edge walk (intra-only when
// synced, all owned when stale) and then its users' tweets under the
// deferred venue overlay — user-disjoint by construction, so no two
// shards touch the same ϕ row, and venue counts are frozen reads plus
// private overlays exactly as in sweepParallel. Barrier: venue deltas
// fold, stale ops apply in shard order. Synced protocol only: the
// boundary color classes then resample fanned across the shard ctxs.
func (m *Model) sweepSharded() {
	S := m.cfg.Shards
	if m.splan == nil {
		m.splan = buildShardPlan(m.corpus, S, m.useF, m.useT)
		m.shCtxs = make([]*sweepCtx, S)
		for s := range m.shCtxs {
			m.shCtxs[s] = &sweepCtx{m: m}
		}
	}
	for s, ctx := range m.shCtxs {
		ctx.rng = randutil.Stream(m.cfg.Seed, uint64(m.curIter)<<16|uint64(s))
	}

	// The blocked kernel's joint draw has no stale factorization; it
	// always syncs its boundary edges.
	stale := m.cfg.StaleBoundary && !m.cfg.BlockedSampler
	update := m.updateEdge
	if m.cfg.BlockedSampler {
		update = m.updateEdgeBlocked
	}
	if stale && m.useF && len(m.splan.staleUsers) > 0 {
		m.snapshotStalePhi()
	}

	m.phase("shard", func() {
		var wg sync.WaitGroup
		for s := 0; s < S; s++ {
			ctx := m.shCtxs[s]
			var edges, tweets []int32
			if m.useF {
				if stale {
					edges = m.splan.owned[s]
				} else if m.splan.intra != nil {
					edges = m.splan.intra[s]
				}
			}
			if m.useT && m.splan.tweets != nil {
				tweets = m.splan.tweets[s]
			}
			if len(edges) == 0 && len(tweets) == 0 {
				continue
			}
			if len(tweets) > 0 {
				ctx.ensureOverlay()
			}
			wg.Add(1)
			go func(ctx *sweepCtx, edges, tweets []int32) {
				defer wg.Done()
				if stale {
					shardOf := m.splan.shardOf
					for _, s := range edges {
						e := m.corpus.Edges[s]
						if shardOf[e.To] != shardOf[e.From] {
							m.updateEdgeStale(ctx, int(s))
						} else {
							m.updateEdge(ctx, int(s))
						}
					}
				} else {
					for _, s := range edges {
						update(ctx, int(s))
					}
				}
				for _, k := range tweets {
					m.updateTweet(ctx, int(k))
				}
			}(ctx, edges, tweets)
		}
		wg.Wait()
	})
	if m.useT || stale {
		m.phase("fold", func() {
			if m.useT {
				m.foldVenueDeltasFrom(m.shCtxs)
			}
			if stale {
				m.applyStaleOps()
			}
		})
	}

	if m.useF && !stale && len(m.splan.bclasses) > 0 {
		m.phase("boundary", func() {
			var bwg sync.WaitGroup
			for _, class := range m.splan.bclasses {
				// Tiny classes are not worth a fan-out barrier; shard 0's
				// stream absorbs them (mirroring sweepParallel).
				if len(class) < 2*S {
					for _, s := range class {
						update(m.shCtxs[0], int(s))
					}
					continue
				}
				per := (len(class) + S - 1) / S
				for w := 0; w < S; w++ {
					lo := w * per
					hi := min(lo+per, len(class))
					if lo >= hi {
						break
					}
					bwg.Add(1)
					go func(ctx *sweepCtx, part []int32) {
						defer bwg.Done()
						for _, s := range part {
							update(ctx, int(s))
						}
					}(m.shCtxs[w], class[lo:hi])
				}
				bwg.Wait()
			}
		})
	}
}

// snapshotStalePhi copies the sweep-start ϕ row and sum of every user a
// boundary edge reads remotely. Rows are allocated once and reused —
// only the copy happens per sweep.
func (m *Model) snapshotStalePhi() {
	if m.stalePhi == nil {
		m.stalePhi = make([][]float64, len(m.corpus.Users))
		m.staleSums = make([]float64, len(m.corpus.Users))
		for _, u := range m.splan.staleUsers {
			m.stalePhi[u] = make([]float64, len(m.phi[u]))
		}
	}
	for _, u := range m.splan.staleUsers {
		copy(m.stalePhi[u], m.phi[u])
		m.staleSums[u] = m.phiSum[u]
	}
}

// applyStaleOps applies every shard's deferred remote-side ϕ ops, in
// shard order then op order — a fixed sequence, so the result is
// deterministic. Ops are exact ±1 shifts; the ϕ+γ mirror moves in
// lockstep as everywhere else.
func (m *Model) applyStaleOps() {
	for _, ctx := range m.shCtxs {
		for _, op := range ctx.stale {
			m.phi[op.u][op.idx] += op.d
			m.phiSum[op.u] += op.d
			m.pg[op.u][op.idx] += op.d
		}
		ctx.stale = ctx.stale[:0]
	}
}

// updateEdgeStale resamples one boundary edge under the stale protocol.
// The follower side (owned by this shard) runs the live kernel verbatim.
// The friend side lives on another shard, so its profile factor is read
// from the sweep-start snapshot — with this edge's own counted
// assignment subtracted, exactly the "remove" step the live kernel
// performs — and its writes (the y move, the µ flip's remote half) are
// recorded as deferred ops. Staleness is bounded by one sweep: the
// snapshot is at most one sweep behind whatever the remote shard is
// concurrently writing.
func (m *Model) updateEdgeStale(ctx *sweepCtx, s int) {
	e := m.corpus.Edges[s]
	candI := m.cands.cand[e.From]
	candJ := m.cands.cand[e.To]
	gammaJ := m.cands.gamma[e.To]
	phiI := m.phi[e.From]
	pgI := m.pg[e.From]
	snap := m.stalePhi[e.To]
	snapSum := m.staleSums[e.To]
	counted := !m.mu[s]

	// --- x_s (follower side, owned → live kernel) ---
	xi := int(m.ex[s])
	if counted {
		phiI[xi]--
		m.phiSum[e.From]--
		pgI[xi]--
	}
	yLoc := candJ[m.ey[s]]
	xi = m.drawEdgeSide(ctx, candI, pgI, yLoc, counted)
	if xi < 0 {
		xi = int(m.ex[s])
	}
	m.ex[s] = uint16(xi)
	if counted {
		phiI[xi]++
		m.phiSum[e.From]++
		pgI[xi]++
	}

	// --- y_s (friend side, remote → snapshot reads, deferred writes) ---
	yiOld := int(m.ey[s])
	xLoc := candI[xi]
	yi := m.drawEdgeSideStale(ctx, candJ, gammaJ, snap, yiOld, xLoc, counted)
	if yi < 0 {
		yi = yiOld
	}
	m.ey[s] = uint16(yi)
	if counted && yi != yiOld {
		ctx.stale = append(ctx.stale,
			staleOp{u: e.To, idx: int32(yiOld), d: -1},
			staleOp{u: e.To, idx: int32(yi), d: 1})
	}

	// --- µ_s ---
	if m.cfg.RhoF <= 0 || m.curIter <= m.cfg.NoiseBurnIn {
		return
	}
	thetaX := m.theta(e.From, xi, counted)
	// θ̂_y against the snapshot, as the live kernel's theta(…, counted)
	// would read it after the y move: the −1 self-exclusion only still
	// hits snap[yi] when the assignment stayed put (a move's +1 and the
	// exclusion cancel).
	num := snap[yi] + gammaJ[yi]
	den := snapSum + m.cands.gammaSum[e.To]
	if counted {
		if yi == yiOld {
			num--
		}
		den--
	}
	if num < 0 {
		num = 0
	}
	var thetaY float64
	if den > 0 {
		thetaY = num / den
	}
	p1 := m.cfg.RhoF * m.fr
	p0 := (1 - m.cfg.RhoF) * thetaX * thetaY * m.beta *
		m.pow(candI[xi], candJ[yi])
	noisy := randutil.Bernoulli(ctx.rng, p1/(p0+p1))
	if noisy == m.mu[s] {
		return
	}
	m.mu[s] = noisy
	d := float64(1)
	if noisy {
		d = -1
	}
	phiI[xi] += d
	m.phiSum[e.From] += d
	pgI[xi] += d
	ctx.stale = append(ctx.stale, staleOp{u: e.To, idx: int32(yi), d: d})
}

// drawEdgeSideStale is drawEdgeSide for a remote friend side: the
// profile factor comes from the snapshot row (own counted assignment
// subtracted), the distance factor from the same table variants as
// edgeCum, and the draw consumes one uniform iff the mass is positive —
// keeping the stale chain draw-for-draw coupled to the synced one on
// identical weights.
func (m *Model) drawEdgeSideStale(ctx *sweepCtx, cand []gazetteer.CityID, gamma, snap []float64, yiOld int, opp gazetteer.CityID, counted bool) int {
	w := ctx.arena.buf(len(cand))
	for c := range cand {
		w[c] = snap[c] + gamma[c]
	}
	if counted {
		w[yiOld]--
		if w[yiOld] < 0 {
			w[yiOld] = 0
		}
		if dt := m.dt; dt != nil {
			if row := dt.row(opp); row != nil {
				uid := dt.uid
				for c, l := range cand {
					w[c] *= row[uid[l]]
				}
			} else {
				for c, l := range cand {
					w[c] *= dt.pow(l, opp)
				}
			}
		} else {
			for c := range cand {
				w[c] *= m.dc.powDist(cand[c], opp, m.alpha)
			}
		}
	}
	return randutil.FusedCategorical(ctx.rng, w, ctx.arena.cumBuf(len(cand)))
}

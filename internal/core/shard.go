package core

import (
	"sync"

	"mlprofile/internal/dataset"
	"mlprofile/internal/randutil"
)

// This file implements the sharded Gibbs sweep (Config.Shards > 1, see
// DESIGN.md §11): users are partitioned across S shards by the stable
// hash dataset.ShardOf, each shard sweeps its own slice of the corpus
// concurrently on its own RNG stream, and the edges that cross shards
// are excluded from the shard phase and resampled after its barrier,
// fanned out over the greedy color classes of the boundary subgraph —
// every boundary read is against folded, up-to-date counts. The sweep
// is deterministic for a fixed (Seed, Shards) pair.

// shardStreamBits is the width of the shard field in a sharded sweep's
// RNG stream key, sweep<<shardStreamBits | shard. A shard index that
// did not fit would spill into the sweep bits and hand two shards one
// stream, so validate caps Shards at maxShards.
const (
	shardStreamBits = 16
	maxShards       = 1 << shardStreamBits
)

// shardPlan is the static partition of the corpus for Shards-way sweeps,
// built once per Fit.
type shardPlan struct {
	// shardOf maps every user to its owning shard (dataset.ShardOf).
	shardOf []int32
	// intra[s] holds shard s's intra-shard edge indices (both endpoints
	// on s), in corpus order — the shard phase's edge walk.
	intra [][]int32
	// boundary holds the cross-shard edge indices in corpus order, and
	// bclasses their greedy coloring (colorEdgesSubset): within one class
	// no two edges share a user, so a class resamples concurrently.
	boundary []int32
	bclasses [][]int32
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
		for s, e := range c.Edges {
			own := p.shardOf[e.From]
			if p.shardOf[e.To] == own {
				p.intra[own] = append(p.intra[own], int32(s))
			} else {
				p.boundary = append(p.boundary, int32(s))
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

// sweepSharded runs one Gibbs sweep under the shard partition. Shard
// phase: S goroutines, shard s resampling its intra-shard edges and then
// its users' tweets under the deferred venue overlay — user-disjoint by
// construction, so no two shards touch the same ϕ row, and venue counts
// are frozen reads plus private overlays. Barrier: venue deltas fold.
// Boundary phase: the boundary color classes resample fanned across the
// shard ctxs.
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
		ctx.rng = randutil.Stream(m.cfg.Seed, uint64(m.curIter)<<shardStreamBits|uint64(s))
	}

	update := m.updateEdge
	if m.cfg.BlockedSampler {
		update = m.updateEdgeBlocked
	}

	m.phase("shard", func() {
		var wg sync.WaitGroup
		for s := 0; s < S; s++ {
			ctx := m.shCtxs[s]
			var edges, tweets []int32
			if m.useF && m.splan.intra != nil {
				edges = m.splan.intra[s]
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
				for _, s := range edges {
					update(ctx, int(s))
				}
				for _, k := range tweets {
					m.updateTweet(ctx, int(k))
				}
			}(ctx, edges, tweets)
		}
		wg.Wait()
	})
	if m.useT {
		m.phase("fold", func() { m.foldVenueDeltasFrom(m.shCtxs) })
	}

	if m.useF && len(m.splan.bclasses) > 0 {
		m.phase("boundary", func() {
			var bwg sync.WaitGroup
			for _, class := range m.splan.bclasses {
				// Tiny classes are not worth a fan-out barrier; shard 0's
				// stream absorbs them.
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

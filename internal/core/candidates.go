package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
)

// candidateIndexLimit bounds every candidacy vector: the latent
// assignments ex, ey and tz, and the snapshot's u16s that carry them,
// hold candidate indexes as uint16, which address 65,536 candidates.
const candidateIndexLimit = 1 << 16

// checkCandidateLimit refuses AllLocationCandidates on a gazetteer whose
// cities, every one a candidate of every user, uint16 indexes cannot
// address. Config.validate bounds MaxCandidates, which caps every other
// candidacy vector.
func checkCandidateLimit(cfg Config, g *gazetteer.Gazetteer) error {
	if cfg.AllLocationCandidates && g.Len() > candidateIndexLimit {
		return fmt.Errorf("core: AllLocationCandidates on a %d-city gazetteer exceeds the limit of %d candidates (uint16 candidate indexes)", g.Len(), candidateIndexLimit)
	}
	return nil
}

// buildCandidates constructs each user's candidacy vector λ_i (Sec. 4.3):
// the locations observed in the user's own relationships — labeled
// neighbors' homes and senses of tweeted venues — plus the user's own
// observed home. Users with no observed locations fall back to the
// globally most frequent labeled homes so every user remains profilable.
//
// The returned structure also carries the per-candidate prior γ_i
// (Eq. 3: τ for every candidate, plus GammaBoost at an observed home).
type candidateSet struct {
	cand     [][]gazetteer.CityID
	gamma    [][]float64
	gammaSum []float64
}

func buildCandidates(c *dataset.Corpus, cfg Config, useF, useT bool) *candidateSet {
	n := len(c.Users)
	cs := &candidateSet{
		cand:     make([][]gazetteer.CityID, n),
		gamma:    make([][]float64, n),
		gammaSum: make([]float64, n),
	}

	if cfg.AllLocationCandidates {
		L := c.Gaz.Len()
		all := make([]gazetteer.CityID, L)
		for l := range all {
			all[l] = gazetteer.CityID(l)
		}
		for u := range c.Users {
			cs.cand[u] = all // shared: identical for every user
			g := make([]float64, L)
			sum := 0.0
			for l := range g {
				g[l] = cfg.Tau
				sum += cfg.Tau
			}
			if home := c.Users[u].Home; home != dataset.NoCity {
				g[home] += cfg.GammaBoost
				sum += cfg.GammaBoost
			}
			cs.gamma[u] = g
			cs.gammaSum[u] = sum
		}
		return cs
	}

	ev := newEvidence(c, cfg.MaxVenueSenses, useF, useT)

	// One pass across GOMAXPROCS: each worker takes a contiguous block of
	// users with its own accumulator scratch and writes every user's
	// sorted, truncated row into slabs local to its block. The blocks are
	// then copied, in user order, into the two contiguous slabs the
	// sweeps walk — stride-1 memory for the fill kernels' gather and
	// prefix-sum loops (the interleaved layout of DESIGN.md §14). Every
	// row depends on its user's evidence alone, so the slabs are
	// identical for any block split.
	nb := max(1, min(runtime.GOMAXPROCS(0), n))
	blocks := make([]candBlock, nb)
	rowEnd := make([]int, n) // each row's end within its block's slabs
	forRows(nb, func(b int) {
		blk := &blocks[b]
		blk.lo, blk.hi = b*n/nb, (b+1)*n/nb
		bound := 0
		for u := blk.lo; u < blk.hi; u++ {
			bound += ev.bound(u, cfg.MaxCandidates)
		}
		blk.cand = make([]gazetteer.CityID, 0, bound)
		blk.gamma = make([]float64, 0, bound)
		sc := ev.scratch()
		for u := blk.lo; u < blk.hi; u++ {
			home := c.Users[u].Home
			list := sc.user(u)
			slices.SortFunc(list, byEvidence)
			if len(list) > cfg.MaxCandidates {
				// Never evict the observed home when truncating.
				list = list[:cfg.MaxCandidates]
				if home != dataset.NoCity && !slices.ContainsFunc(list, func(e cityWeight) bool { return e.l == home }) {
					list[len(list)-1] = cityWeight{home, 0.5}
				}
			}
			sum := 0.0
			for _, e := range list {
				g := cfg.Tau
				if e.l == home {
					g += cfg.GammaBoost
				}
				blk.cand = append(blk.cand, e.l)
				blk.gamma = append(blk.gamma, g)
				sum += g
			}
			rowEnd[u] = len(blk.cand)
			cs.gammaSum[u] = sum
		}
	})
	total := 0
	for _, blk := range blocks {
		total += len(blk.cand)
	}
	candSlab := make([]gazetteer.CityID, total)
	gammaSlab := make([]float64, total)
	off := 0
	for _, blk := range blocks {
		copy(candSlab[off:], blk.cand)
		copy(gammaSlab[off:], blk.gamma)
		// Full-capacity row slices keep any future append from
		// clobbering a neighbor row.
		start := off
		for u := blk.lo; u < blk.hi; u++ {
			end := off + rowEnd[u]
			cs.cand[u] = candSlab[start:end:end]
			cs.gamma[u] = gammaSlab[start:end:end]
			start = end
		}
		off += len(blk.cand)
	}
	return cs
}

// candBlock is one worker's contiguous block of users [lo, hi) in
// buildCandidates and its rows, back to back in user order.
type candBlock struct {
	lo, hi int
	cand   []gazetteer.CityID
	gamma  []float64
}

// candidacyKey holds every Config field buildCandidates reads, as the
// model's config holds them (defaulted by Fit, decoded by a load): two
// loads over interchangeable corpora with equal keys build the same
// candidacy. Config.validate refuses NaN in Tau and GammaBoost, so ==
// on the key is value equality.
type candidacyKey struct {
	variant       Variant
	allLocations  bool
	maxCandidates int
	maxSenses     int
	tau, boost    float64
}

func candidacyKeyOf(cfg Config) candidacyKey {
	return candidacyKey{cfg.Variant, cfg.AllLocationCandidates, cfg.MaxCandidates, cfg.MaxVenueSenses, cfg.Tau, cfg.GammaBoost}
}

// cityWeight is one city of a user's evidence and its summed weight.
type cityWeight struct {
	l gazetteer.CityID
	w float64
}

// byEvidence orders a user's evidence heaviest first, then by city id:
// a total order over the user's distinct cities, so the sorted list does
// not depend on the sort algorithm.
func byEvidence(a, b cityWeight) int {
	if a.w != b.w {
		if a.w > b.w {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.l, b.l)
}

// evidence holds each user's candidacy evidence, read-only once built:
// the labeled neighbor homes of a user's edges and the venues of the
// user's tweets sit in per-user lists in corpus order, so a user's
// per-city sums take the same additions in the same order — edges, then
// tweets, each in corpus order — as one pass over all edges and then all
// tweets would give them.
type evidence struct {
	c         *dataset.Corpus
	maxSenses int
	fallback  []gazetteer.CityID

	nbrOff, tweetOff []int
	nbrHome          []gazetteer.CityID
	tweetVenue       []gazetteer.VenueID
}

func newEvidence(c *dataset.Corpus, maxSenses int, useF, useT bool) *evidence {
	n := len(c.Users)
	ev := &evidence{
		c:         c,
		maxSenses: maxSenses,
		fallback:  topLabeledHomes(c, 10),
	}
	ev.nbrOff, ev.nbrHome = groupByUser(n, func(emit func(dataset.UserID, gazetteer.CityID)) {
		if !useF {
			return
		}
		for _, e := range c.Edges {
			if h := c.Users[e.To].Home; h != dataset.NoCity {
				emit(e.From, h)
			}
			if h := c.Users[e.From].Home; h != dataset.NoCity {
				emit(e.To, h)
			}
		}
	})
	ev.tweetOff, ev.tweetVenue = groupByUser(n, func(emit func(dataset.UserID, gazetteer.VenueID)) {
		if !useT {
			return
		}
		for _, t := range c.Tweets {
			emit(t.User, t.Venue)
		}
	})
	return ev
}

// groupByUser is a stable counting sort: user u's list is
// vals[off[u]:off[u+1]], the values each reports for u in the order it
// reports them. each runs twice, counting and then filling, and must
// report the same sequence both times.
func groupByUser[T any](n int, each func(emit func(dataset.UserID, T))) (off []int, vals []T) {
	off = make([]int, n+1)
	each(func(u dataset.UserID, _ T) { off[u+1]++ })
	for u := range n {
		off[u+1] += off[u]
	}
	vals = make([]T, off[n])
	next := slices.Clone(off[:n])
	each(func(u dataset.UserID, v T) {
		vals[next[u]] = v
		next[u]++
	})
	return off, vals
}

// bound caps the length of user u's candidate row: at most limit, and
// at most one city per labeled neighbor, maxSenses per tweet and the
// observed home, or the fallback list when there is none of those. The
// division keeps the product from overflowing at any maxSenses.
func (ev *evidence) bound(u, limit int) int {
	k := max(ev.nbrOff[u+1]-ev.nbrOff[u]+1, len(ev.fallback))
	if tweets := ev.tweetOff[u+1] - ev.tweetOff[u]; k < limit && tweets <= (limit-k)/ev.maxSenses {
		return k + tweets*ev.maxSenses
	}
	return limit
}

// evidenceScratch is one worker's view of the evidence. acc is the
// per-city sum of the user being read, all zero between users: every
// bump is positive, so zero means untouched. touched lists the cities
// bumped, first touch first, and list is the (city, weight) buffer user
// returns.
type evidenceScratch struct {
	*evidence
	acc     []float64
	touched []gazetteer.CityID
	list    []cityWeight
}

func (ev *evidence) scratch() *evidenceScratch {
	return &evidenceScratch{evidence: ev, acc: make([]float64, ev.c.Gaz.Len())}
}

// user returns user u's evidence, unsorted, in a buffer the next call
// reuses. An observed home nothing else touched enters at 0.5,
// guaranteeing its candidacy; a user with no evidence and no home gets
// the fallback homes at 0.1 each.
func (sc *evidenceScratch) user(u int) []cityWeight {
	acc, touched := sc.acc, sc.touched[:0]
	bump := func(l gazetteer.CityID, w float64) {
		if acc[l] == 0 {
			touched = append(touched, l)
		}
		acc[l] += w
	}
	for _, h := range sc.nbrHome[sc.nbrOff[u]:sc.nbrOff[u+1]] {
		bump(h, 1)
	}
	for _, v := range sc.tweetVenue[sc.tweetOff[u]:sc.tweetOff[u+1]] {
		senses := sc.c.Venues.Venue(v).Locations
		if len(senses) > sc.maxSenses {
			senses = senses[:sc.maxSenses]
		}
		for rank, l := range senses {
			// Population-ranked senses: the default sense gets full
			// weight, later senses progressively less.
			bump(l, 1/float64(rank+1))
		}
	}
	list := sc.list[:0]
	if home := sc.c.Users[u].Home; home != dataset.NoCity && acc[home] == 0 {
		list = append(list, cityWeight{home, 0.5})
	}
	for _, l := range touched {
		list = append(list, cityWeight{l, acc[l]})
		acc[l] = 0
	}
	if len(list) == 0 {
		for _, l := range sc.fallback {
			list = append(list, cityWeight{l, 0.1})
		}
	}
	sc.touched, sc.list = touched, list
	return list
}

// topLabeledHomes returns the k most frequent observed home locations.
func topLabeledHomes(c *dataset.Corpus, k int) []gazetteer.CityID {
	counts := make([]int, c.Gaz.Len())
	for _, u := range c.Users {
		if u.Home != dataset.NoCity {
			counts[u.Home]++
		}
	}
	type lc struct {
		l gazetteer.CityID
		n int
	}
	var list []lc
	for l, n := range counts {
		if n > 0 {
			list = append(list, lc{gazetteer.CityID(l), n})
		}
	}
	slices.SortFunc(list, func(a, b lc) int {
		return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.l, b.l))
	})
	if len(list) > k {
		list = list[:k]
	}
	out := make([]gazetteer.CityID, len(list))
	for i, e := range list {
		out[i] = e.l
	}
	if len(out) == 0 {
		// Totally unlabeled corpus: fall back to the most populous city.
		out = append(out, mostPopulous(c.Gaz))
	}
	return out
}

func mostPopulous(g *gazetteer.Gazetteer) gazetteer.CityID {
	best := gazetteer.CityID(0)
	bestPop := -1
	for _, c := range g.Cities() {
		if c.Population > bestPop {
			bestPop = c.Population
			best = c.ID
		}
	}
	return best
}

package core

import (
	"cmp"
	"fmt"
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

	// The rows go into two contiguous slabs in user order — the order the
	// sweeps walk them — so the fill kernels' gather and prefix-sum loops
	// stream stride-1 memory (the interleaved layout of DESIGN.md §14). A
	// first pass over the evidence sizes the slabs exactly; full-capacity
	// row slices keep any future append from clobbering a neighbor row.
	total := 0
	for u := range c.Users {
		total += min(len(ev.user(u)), cfg.MaxCandidates)
	}
	candSlab := make([]gazetteer.CityID, 0, total)
	gammaSlab := make([]float64, 0, total)
	for u := range c.Users {
		home := c.Users[u].Home
		list := ev.user(u)
		slices.SortFunc(list, byEvidence)
		if len(list) > cfg.MaxCandidates {
			// Never evict the observed home when truncating.
			list = list[:cfg.MaxCandidates]
			if home != dataset.NoCity && !slices.ContainsFunc(list, func(e cityWeight) bool { return e.l == home }) {
				list[len(list)-1] = cityWeight{home, 0.5}
			}
		}
		b := len(candSlab)
		sum := 0.0
		for _, e := range list {
			g := cfg.Tau
			if e.l == home {
				g += cfg.GammaBoost
			}
			candSlab = append(candSlab, e.l)
			gammaSlab = append(gammaSlab, g)
			sum += g
		}
		cs.cand[u] = candSlab[b:len(candSlab):len(candSlab)]
		cs.gamma[u] = gammaSlab[b:len(gammaSlab):len(gammaSlab)]
		cs.gammaSum[u] = sum
	}
	return cs
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

// evidence sums each user's candidacy evidence per city. The labeled
// neighbor homes of a user's edges and the venues of the user's tweets
// sit in per-user lists in corpus order, so a user's per-city sums take
// the same additions in the same order — edges, then tweets, each in
// corpus order — as one pass over all edges and then all tweets would
// give them.
type evidence struct {
	c         *dataset.Corpus
	maxSenses int
	fallback  []gazetteer.CityID

	nbrOff, tweetOff []int
	nbrHome          []gazetteer.CityID
	tweetVenue       []gazetteer.VenueID

	// acc is the per-city sum of the user being read, all zero between
	// users: every bump is positive, so zero means untouched. touched
	// lists the cities bumped, first touch first, and list is the
	// (city, weight) buffer user returns.
	acc     []float64
	touched []gazetteer.CityID
	list    []cityWeight
}

func newEvidence(c *dataset.Corpus, maxSenses int, useF, useT bool) *evidence {
	n := len(c.Users)
	ev := &evidence{
		c:         c,
		maxSenses: maxSenses,
		fallback:  topLabeledHomes(c, 10),
		acc:       make([]float64, c.Gaz.Len()),
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

// user returns user u's evidence, unsorted, in a buffer the next call
// reuses. An observed home nothing else touched enters at 0.5,
// guaranteeing its candidacy; a user with no evidence and no home gets
// the fallback homes at 0.1 each.
func (ev *evidence) user(u int) []cityWeight {
	acc, touched := ev.acc, ev.touched[:0]
	bump := func(l gazetteer.CityID, w float64) {
		if acc[l] == 0 {
			touched = append(touched, l)
		}
		acc[l] += w
	}
	for _, h := range ev.nbrHome[ev.nbrOff[u]:ev.nbrOff[u+1]] {
		bump(h, 1)
	}
	for _, v := range ev.tweetVenue[ev.tweetOff[u]:ev.tweetOff[u+1]] {
		senses := ev.c.Venues.Venue(v).Locations
		if len(senses) > ev.maxSenses {
			senses = senses[:ev.maxSenses]
		}
		for rank, l := range senses {
			// Population-ranked senses: the default sense gets full
			// weight, later senses progressively less.
			bump(l, 1/float64(rank+1))
		}
	}
	list := ev.list[:0]
	if home := ev.c.Users[u].Home; home != dataset.NoCity && acc[home] == 0 {
		list = append(list, cityWeight{home, 0.5})
	}
	for _, l := range touched {
		list = append(list, cityWeight{l, acc[l]})
		acc[l] = 0
	}
	if len(list) == 0 {
		for _, l := range ev.fallback {
			list = append(list, cityWeight{l, 0.1})
		}
	}
	ev.touched, ev.list = touched, list
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

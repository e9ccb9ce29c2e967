package core

import (
	"sort"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
)

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

	// Evidence accumulation per user.
	evidence := make([]map[gazetteer.CityID]float64, n)
	bump := func(u dataset.UserID, l gazetteer.CityID, w float64) {
		if evidence[u] == nil {
			evidence[u] = make(map[gazetteer.CityID]float64, 8)
		}
		evidence[u][l] += w
	}

	if useF {
		for _, e := range c.Edges {
			if h := c.Users[e.To].Home; h != dataset.NoCity {
				bump(e.From, h, 1)
			}
			if h := c.Users[e.From].Home; h != dataset.NoCity {
				bump(e.To, h, 1)
			}
		}
	}
	if useT {
		for _, t := range c.Tweets {
			v := c.Venues.Venue(t.Venue)
			senses := v.Locations
			if len(senses) > cfg.MaxVenueSenses {
				senses = senses[:cfg.MaxVenueSenses]
			}
			for rank, l := range senses {
				// Population-ranked senses: the default sense gets full
				// weight, later senses progressively less.
				bump(t.User, l, 1/float64(rank+1))
			}
		}
	}

	// Global fallback: most frequent labeled homes.
	fallback := topLabeledHomes(c, 10)

	for u := range c.Users {
		home := c.Users[u].Home
		ev := evidence[u]
		if ev == nil {
			ev = make(map[gazetteer.CityID]float64, len(fallback)+1)
		}
		if home != dataset.NoCity {
			if _, ok := ev[home]; !ok {
				ev[home] = 0.5 // guarantee candidacy for the observed home
			}
		}
		if len(ev) == 0 {
			for _, l := range fallback {
				ev[l] = 0.1
			}
		}

		type cw struct {
			l gazetteer.CityID
			w float64
		}
		list := make([]cw, 0, len(ev))
		//mlp:allow maporder order-independent: list is fully sorted with a deterministic tie-break below
		for l, w := range ev {
			list = append(list, cw{l, w})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].w != list[j].w {
				return list[i].w > list[j].w
			}
			return list[i].l < list[j].l
		})
		if len(list) > cfg.MaxCandidates {
			// Never evict the observed home when truncating.
			kept := list[:cfg.MaxCandidates]
			if home != dataset.NoCity {
				present := false
				for _, e := range kept {
					if e.l == home {
						present = true
						break
					}
				}
				if !present {
					kept[len(kept)-1] = cw{home, 0.5}
				}
			}
			list = kept
		}

		cands := make([]gazetteer.CityID, len(list))
		g := make([]float64, len(list))
		sum := 0.0
		for i, e := range list {
			cands[i] = e.l
			g[i] = cfg.Tau
			if e.l == home {
				g[i] += cfg.GammaBoost
			}
			sum += g[i]
		}
		cs.cand[u] = cands
		cs.gamma[u] = g
		cs.gammaSum[u] = sum
	}
	cs.interleave()
	return cs
}

// interleave repacks the per-user candidate and prior rows into two
// contiguous slabs in user order — the order the sweeps walk them — so
// the fill kernels' gather and prefix-sum loops stream stride-1 memory
// (the interleaved layout of DESIGN.md §14). Purely a relocation done
// once at build time: values, lengths and draw order are untouched.
// Full-capacity re-slices keep any future append from clobbering a
// neighbor row. The AllLocationCandidates path skips this (its rows
// already share one allocation per kind).
func (cs *candidateSet) interleave() {
	total := 0
	for _, c := range cs.cand {
		total += len(c)
	}
	candSlab := make([]gazetteer.CityID, 0, total)
	gammaSlab := make([]float64, 0, total)
	for u := range cs.cand {
		cb, gb := len(candSlab), len(gammaSlab)
		candSlab = append(candSlab, cs.cand[u]...)
		gammaSlab = append(gammaSlab, cs.gamma[u]...)
		cs.cand[u] = candSlab[cb:len(candSlab):len(candSlab)]
		cs.gamma[u] = gammaSlab[gb:len(gammaSlab):len(gammaSlab)]
	}
}

// topLabeledHomes returns the k most frequent observed home locations.
func topLabeledHomes(c *dataset.Corpus, k int) []gazetteer.CityID {
	counts := make(map[gazetteer.CityID]int)
	for _, u := range c.Users {
		if u.Home != dataset.NoCity {
			counts[u.Home]++
		}
	}
	type lc struct {
		l gazetteer.CityID
		n int
	}
	list := make([]lc, 0, len(counts))
	//mlp:allow maporder order-independent: list is fully sorted with a deterministic tie-break below
	for l, n := range counts {
		list = append(list, lc{l, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].l < list[j].l
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

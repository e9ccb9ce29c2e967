package core

import (
	"cmp"
	"slices"
	"sort"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
)

// Profile returns user u's estimated location profile θ̂_i (Eq. 10):
// the posterior probability of each candidate location, sorted descending.
// Probabilities over the candidate set sum to 1.
func (m *Model) Profile(u dataset.UserID) []dataset.WeightedLocation {
	cand := m.cands.cand[u]
	gamma := m.cands.gamma[u]
	den := m.phiSum[u] + m.cands.gammaSum[u]
	out := make([]dataset.WeightedLocation, len(cand))
	for i, l := range cand {
		out[i] = dataset.WeightedLocation{
			City:   l,
			Weight: (m.phi[u][i] + gamma[i]) / den,
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight > out[b].Weight
		}
		return out[a].City < out[b].City
	})
	return out
}

// Home predicts user u's home location: the profile's top entry ("the one
// with the largest probability in θ_i").
func (m *Model) Home(u dataset.UserID) gazetteer.CityID {
	prof := m.Profile(u)
	if len(prof) == 0 {
		return dataset.NoCity
	}
	return prof[0].City
}

// TopK returns the top-k locations of user u's profile ("ui's location
// profile as the top K locations in θ_i").
func (m *Model) TopK(u dataset.UserID, k int) []gazetteer.CityID {
	prof := m.Profile(u)
	if k > len(prof) {
		k = len(prof)
	}
	out := make([]gazetteer.CityID, k)
	for i := 0; i < k; i++ {
		out[i] = prof[i].City
	}
	return out
}

// AboveThreshold returns the locations whose profile probability exceeds
// the threshold (the paper's alternative profile readout).
func (m *Model) AboveThreshold(u dataset.UserID, threshold float64) []gazetteer.CityID {
	var out []gazetteer.CityID
	for _, wl := range m.Profile(u) {
		if wl.Weight > threshold {
			out = append(out, wl.City)
		}
	}
	return out
}

// EdgeExplanation is the profiled explanation of one following
// relationship: the sampled location assignments of both endpoints, and
// whether the model routed the edge to the random (noise) component.
type EdgeExplanation struct {
	X, Y  gazetteer.CityID
	Noisy bool
}

// ExplainEdge returns the current latent explanation for edge s (an index
// into the corpus edge slice). The model must consume following
// relationships (MLP or MLP_U).
func (m *Model) ExplainEdge(s int) (EdgeExplanation, bool) {
	if !m.useF {
		return EdgeExplanation{}, false
	}
	e := m.corpus.Edges[s]
	return EdgeExplanation{
		X:     m.cands.cand[e.From][m.ex[s]],
		Y:     m.cands.cand[e.To][m.ey[s]],
		Noisy: m.mu[s],
	}, true
}

// MAPExplainEdge returns the maximum-a-posteriori explanation for edge s
// given the fitted profiles: the candidate pair (x, y) maximizing
// θ̂_i(x)·θ̂_j(y)·d(x,y)^α, with the noise flag from comparing the best
// location-based likelihood against the random model. This is the
// deterministic read-out analogue of Eq. 10 for relationship assignments —
// less noisy than the final Gibbs sample.
//
// The search visits both candidate sets in descending θ̂ and prunes. The
// 1-mile clamp and α ≤ 0 give d^α ≤ 1, and fl(x·d) ≤ x for any d ≤ 1, so
// no pair outweighs its θ̂_i·θ̂_j: a row stops at the first pair whose
// product falls below the best weight, and the walk stops at the first
// row whose leading product does. Equal weights keep the pair that comes
// first in row-major (i, j) order, so the result is the exhaustive
// scan's first maximum.
func (m *Model) MAPExplainEdge(s int) (EdgeExplanation, bool) {
	if !m.useF {
		return EdgeExplanation{}, false
	}
	e := m.corpus.Edges[s]
	candI := m.cands.cand[e.From]
	candJ := m.cands.cand[e.To]
	// Stack buffers cover the default MaxCandidates, so a served
	// explanation allocates nothing.
	var bufI, bufJ [64]rankedTheta
	ordI := m.thetaOrder(bufI[:0], e.From)
	ordJ := m.thetaOrder(bufJ[:0], e.To)

	bestX, bestY, bestW := 0, 0, -1.0
	for _, a := range ordI {
		if a.t <= 0 || a.t*ordJ[0].t < bestW {
			break
		}
		for _, b := range ordJ {
			p := a.t * b.t
			if p < bestW {
				break
			}
			w := p * m.dt.pow(candI[a.i], candJ[b.i])
			if w > bestW || w == bestW && (a.i < bestX || a.i == bestX && b.i < bestY) {
				bestX, bestY, bestW = a.i, b.i, w
			}
		}
	}
	p1 := m.cfg.RhoF * m.fr
	p0 := (1 - m.cfg.RhoF) * m.beta * bestW
	return EdgeExplanation{
		X:     candI[bestX],
		Y:     candJ[bestY],
		Noisy: p1 > p0,
	}, true
}

// rankedTheta is one candidate's index and profile probability θ̂.
type rankedTheta struct {
	i int
	t float64
}

// thetaOrder appends user u's candidates with their θ̂ to ord, sorts
// them in descending θ̂ and returns the result.
func (m *Model) thetaOrder(ord []rankedTheta, u dataset.UserID) []rankedTheta {
	for i := range m.cands.cand[u] {
		ord = append(ord, rankedTheta{i, m.theta(u, i, false)})
	}
	slices.SortFunc(ord, func(a, b rankedTheta) int { return cmp.Compare(b.t, a.t) })
	return ord
}

// TweetExplanation is the latent explanation of one tweeting relationship.
type TweetExplanation struct {
	Z     gazetteer.CityID
	Noisy bool
}

// ExplainTweet returns the current latent explanation for tweet k.
func (m *Model) ExplainTweet(k int) (TweetExplanation, bool) {
	if !m.useT {
		return TweetExplanation{}, false
	}
	t := m.corpus.Tweets[k]
	return TweetExplanation{
		Z:     m.cands.cand[t.User][m.tz[k]],
		Noisy: m.nu[k],
	}, true
}

// NoiseStats reports the fraction of relationships currently routed to the
// random models — the model's estimate of the corpus noise rates.
func (m *Model) NoiseStats() (edgeNoise, tweetNoise float64) {
	if m.useF && len(m.mu) > 0 {
		n := 0
		for _, b := range m.mu {
			if b {
				n++
			}
		}
		edgeNoise = float64(n) / float64(len(m.mu))
	}
	if m.useT && len(m.nu) > 0 {
		n := 0
		for _, b := range m.nu {
			if b {
				n++
			}
		}
		tweetNoise = float64(n) / float64(len(m.nu))
	}
	return edgeNoise, tweetNoise
}

// VenueProbability returns the collapsed venue probability ψ̂_l(v) —
// Eq. 6's tweeting factor: how likely a user located at l is to mention
// venue v, under the fitted counts. Models without tweeting
// observations (MLP_U) report zero.
func (m *Model) VenueProbability(l gazetteer.CityID, v gazetteer.VenueID) float64 {
	if !m.useT || l < 0 || int(l) >= len(m.venueSum) || v < 0 || int(v) >= m.numVenues {
		return 0
	}
	return m.psi(l, v)
}

// Candidates returns user u's candidacy vector (read-only).
func (m *Model) Candidates(u dataset.UserID) []gazetteer.CityID {
	return m.cands.cand[u]
}

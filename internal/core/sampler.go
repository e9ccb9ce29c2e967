package core

import (
	"math"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/powerlaw"
	"mlprofile/internal/randutil"
	"mlprofile/internal/stats"
)

// sweep performs one Gibbs iteration: every following relationship's
// (x, y, µ) and every tweeting relationship's (z, ν) is resampled from its
// conditional posterior (Eqs. 5–9). The default, Shards=1, runs the
// paper's exact sequential chain on the model RNG: edges in corpus
// order, then tweets. Shards>1 is the one parallel sweep (sweepSharded,
// see shard.go).
func (m *Model) sweep() {
	if m.cfg.Shards > 1 {
		m.sweepSharded()
		return
	}
	if m.useF {
		m.phase("edge", func() {
			if m.cfg.BlockedSampler {
				for s := range m.corpus.Edges {
					m.updateEdgeBlocked(m.seq, s)
				}
			} else {
				for s := range m.corpus.Edges {
					m.updateEdge(m.seq, s)
				}
			}
		})
	}
	if m.useT {
		m.phase("tweet", func() {
			for k := range m.corpus.Tweets {
				m.updateTweet(m.seq, k)
			}
		})
	}
}

// updateEdge resamples x_s (Eq. 7), y_s (Eq. 8) and µ_s (Eq. 5) for one
// following relationship, in the paper's per-variable fashion.
//
// Convention (see DESIGN.md): location assignments contribute to the
// profile counts ϕ only while the relationship is location-based (µ=0).
// A noise-flagged relationship keeps phantom assignments — refreshed from
// the profile alone, per the first factor of Eqs. 7–8 — but stops voting,
// which is how MLP "automatically rules out noisy relationships".
func (m *Model) updateEdge(ctx *sweepCtx, s int) {
	e := m.corpus.Edges[s]
	candI := m.cands.cand[e.From]
	candJ := m.cands.cand[e.To]
	phiI := m.phi[e.From]
	phiJ := m.phi[e.To]
	pgI, pgJ := m.pg[e.From], m.pg[e.To]
	counted := !m.mu[s]

	// --- x_s (follower side, Eq. 7) ---
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

	// --- y_s (friend side, Eq. 8) ---
	yi := int(m.ey[s])
	if counted {
		phiJ[yi]--
		m.phiSum[e.To]--
		pgJ[yi]--
	}
	xLoc := candI[xi]
	yi = m.drawEdgeSide(ctx, candJ, pgJ, xLoc, counted)
	if yi < 0 {
		yi = int(m.ey[s])
	}
	m.ey[s] = uint16(yi)
	if counted {
		phiJ[yi]++
		m.phiSum[e.To]++
		pgJ[yi]++
	}

	// --- µ_s (Eq. 5) ---
	// The profile factors θ̂_x·θ̂_y suppress the location-based branch for
	// weakly supported assignments, which drains scattered long-range
	// edges into the noise bucket. Early in sampling this would be a trap
	// (diffuse profiles make *everything* look like noise), so the mixture
	// only activates after NoiseBurnIn sweeps.
	if m.cfg.RhoF <= 0 || m.curIter <= m.cfg.NoiseBurnIn {
		return
	}
	thetaX := m.theta(e.From, xi, counted)
	thetaY := m.theta(e.To, yi, counted)
	p1 := m.cfg.RhoF * m.fr
	p0 := (1 - m.cfg.RhoF) * thetaX * thetaY * m.beta *
		m.pow(candI[xi], candJ[yi])
	noisy := randutil.Bernoulli(ctx.rng, p1/(p0+p1))
	if noisy == m.mu[s] {
		return
	}
	m.mu[s] = noisy
	if noisy {
		// 0 → 1: the assignments stop counting.
		phiI[xi]--
		phiJ[yi]--
		m.phiSum[e.From]--
		m.phiSum[e.To]--
		pgI[xi]--
		pgJ[yi]--
	} else {
		// 1 → 0: the assignments start counting.
		phiI[xi]++
		phiJ[yi]++
		m.phiSum[e.From]++
		m.phiSum[e.To]++
		pgI[xi]++
		pgJ[yi]++
	}
}

// drawEdgeSide draws one side's new candidate index from its
// per-variable conditional (Eq. 7/8), or -1 when the mass is zero (the
// caller keeps the old assignment): edgeCum fills the running prefix
// sums and one uniform is inverted over them (randutil.InvertCum).
func (m *Model) drawEdgeSide(ctx *sweepCtx, cand []gazetteer.CityID, pg []float64, opp gazetteer.CityID, counted bool) int {
	cum := ctx.arena.cumBuf(len(cand))
	m.edgeCum(cum, cand, pg, opp, counted)
	return randutil.InvertCum(ctx.rng, cum)
}

// edgeCum fills one side's per-variable conditional as running prefix
// sums: the profile factor ϕ+γ (read from the maintained mirror), times
// the distance factor to the fixed opposite endpoint when the edge
// counts. The loop variants compute the same expression; they differ
// only in where d^α comes from — the opposite city's universe pow row
// (one in-row load per candidate), a single lookup per pair above the
// universe budget, or the exact path. The candidate order and the single
// downstream inversion are identical in all of them, which is what keeps
// a DistTable chain coupled to the exact chain. The weights are
// non-negative, so adding them unconditionally matches Categorical's
// positives-only sum (x+0 is x).
func (m *Model) edgeCum(cum []float64, cand []gazetteer.CityID, pg []float64, opp gazetteer.CityID, counted bool) {
	// Pin the parallel slices to the candidate length so the loops run
	// bounds-check-free (pg/cum are allocated per candidate set).
	pg = pg[:len(cand)]
	cum = cum[:len(cand)]
	var total float64
	if !counted {
		for c := range cand {
			total += pg[c]
			cum[c] = total
		}
		return
	}
	if dt := m.dt; dt != nil {
		if row := dt.row(opp); row != nil {
			uid := dt.uid
			for c, l := range cand {
				total += pg[c] * row[uid[l]]
				cum[c] = total
			}
		} else {
			for c, l := range cand {
				total += pg[c] * dt.pow(l, opp)
				cum[c] = total
			}
		}
		return
	}
	for c := range cand {
		total += pg[c] * m.dc.powDist(cand[c], opp, m.alpha)
		cum[c] = total
	}
}

// updateEdgeBlocked jointly resamples (µ_s, x_s, y_s) from their exact
// joint conditional — the blocked-sampler ablation. The model is
// unchanged; only the inference move differs. With the distance table on
// the pruned factored kernel below takes over.
func (m *Model) updateEdgeBlocked(ctx *sweepCtx, s int) {
	if m.dt != nil {
		m.updateEdgeBlockedTable(ctx, s)
		return
	}
	e := m.corpus.Edges[s]
	candI := m.cands.cand[e.From]
	candJ := m.cands.cand[e.To]
	gammaI := m.cands.gamma[e.From]
	gammaJ := m.cands.gamma[e.To]
	phiI := m.phi[e.From]
	phiJ := m.phi[e.To]

	// Remove the current assignments from the counts when they count.
	if !m.mu[s] {
		phiI[m.ex[s]]--
		phiJ[m.ey[s]]--
		m.phiSum[e.From]--
		m.phiSum[e.To]--
		m.pg[e.From][m.ex[s]]--
		m.pg[e.To][m.ey[s]]--
	}

	nI, nJ := len(candI), len(candJ)
	wx, wy, pair := ctx.arena.bufBlocked(nI, nJ)
	for c := range candI {
		wx[c] = phiI[c] + gammaI[c]
	}
	for c := range candJ {
		wy[c] = phiJ[c] + gammaJ[c]
	}
	denI := m.phiSum[e.From] + m.cands.gammaSum[e.From]
	denJ := m.phiSum[e.To] + m.cands.gammaSum[e.To]

	// W1: noise branch weight (the θ̂ marginals integrate out to 1).
	// W0: location-based branch marginalized over all candidate pairs.
	// During burn-in the noise branch is held off.
	w1 := m.cfg.RhoF * m.fr
	if m.curIter <= m.cfg.NoiseBurnIn {
		w1 = 0
	}
	// pair[] holds the running prefix sums of the joint weights in
	// row-major order, ready for a single inversion.
	var pairSum float64
	for i := 0; i < nI; i++ {
		for j := 0; j < nJ; j++ {
			pairSum += wx[i] * wy[j] * m.dc.powDist(candI[i], candJ[j], m.alpha)
			pair[i*nJ+j] = pairSum
		}
	}
	w0 := (1 - m.cfg.RhoF) * m.beta * pairSum / (denI * denJ)

	if randutil.Bernoulli(ctx.rng, w1/(w0+w1)) {
		// Noise: keep phantom assignments drawn from the profiles alone;
		// they do not count.
		m.mu[s] = true
		xi, yi := m.drawBlockedNoise(ctx, wx, wy)
		if xi < 0 {
			xi = int(m.ex[s])
		}
		if yi < 0 {
			yi = int(m.ey[s])
		}
		m.ex[s], m.ey[s] = uint16(xi), uint16(yi)
		return
	}
	m.mu[s] = false
	p := randutil.InvertCum(ctx.rng, pair)
	if p < 0 {
		p = int(m.ex[s])*nJ + int(m.ey[s])
	}
	m.ex[s], m.ey[s] = uint16(p/nJ), uint16(p%nJ)
	phiI[m.ex[s]]++
	phiJ[m.ey[s]]++
	m.phiSum[e.From]++
	m.phiSum[e.To]++
	m.pg[e.From][m.ex[s]]++
	m.pg[e.To][m.ey[s]]++
}

// drawBlockedNoise draws both endpoints' phantom assignments on the
// blocked kernels' noise branch. The raw wx/wy weights stay live (the
// joint pass consumed them as factors), so each side runs
// randutil.FusedCategorical — one prefix pass plus a search, sharing the
// arena's prefix buffer.
func (m *Model) drawBlockedNoise(ctx *sweepCtx, wx, wy []float64) (xi, yi int) {
	cum := ctx.arena.cumBuf(max(len(wx), len(wy)))
	xi = randutil.FusedCategorical(ctx.rng, wx, cum)
	yi = randutil.FusedCategorical(ctx.rng, wy, cum)
	return xi, yi
}

// updateEdgeBlockedTable is the pruned factored form of the blocked
// kernel, active when the distance table is on. The pair weight
// factorizes as
//
//	W[i][j] = (ϕ_I[i]+γ_I[i]) · (ϕ_J[j]+γ_J[j]) · D[i][j]
//
// with D the quantized d^α matrix, static within an α-epoch. Splitting
// the friend-side factor into its static prior γ_J and its sparse
// profile counts ϕ_J gives per-row sums
//
//	S[i] = Σ_j (ϕ_J[j]+γ_J[j])·D[i][j] = gRow[i] + Σ_{j∈supp ϕ_J} ϕ_J[j]·D[i][j]
//
// where gRow is the edge's cached static row sum (edgeCache). The sweep
// therefore pays O(nI + nJ + nI·kJ) per edge — kJ = |supp ϕ_J|, which
// sampling concentrates onto a handful of candidates — instead of the
// exact kernel's O(nI·nJ) haversine+pow evaluations.
//
// Sampling stays draw-for-draw aligned with the exact kernel: the same
// Bernoulli, and a single uniform inverted over the rows' cumulative
// masses and then within the chosen row — the row-major order of the
// exact kernel's flat inversion over pair[]. Only the weight values
// differ, by quantization, so a DistTable chain shadows the exact one.
func (m *Model) updateEdgeBlockedTable(ctx *sweepCtx, s int) {
	e := m.corpus.Edges[s]
	candI := m.cands.cand[e.From]
	candJ := m.cands.cand[e.To]
	gammaI := m.cands.gamma[e.From]
	gammaJ := m.cands.gamma[e.To]
	phiI := m.phi[e.From]
	phiJ := m.phi[e.To]

	if !m.mu[s] {
		phiI[m.ex[s]]--
		phiJ[m.ey[s]]--
		m.phiSum[e.From]--
		m.phiSum[e.To]--
		m.pg[e.From][m.ex[s]]--
		m.pg[e.To][m.ey[s]]--
	}

	nI, nJ := len(candI), len(candJ)
	ec := m.edgeCacheFor(s, candI, candJ, gammaJ)
	wx, wy, rowMass, supJ := ctx.arena.bufBlockedTable(nI, nJ)
	for c := range candI {
		wx[c] = phiI[c] + gammaI[c]
	}
	kJ := 0
	for j := range candJ {
		wy[j] = phiJ[j] + gammaJ[j]
		if phiJ[j] > 0 {
			supJ[kJ] = int32(j)
			kJ++
		}
	}
	sup := supJ[:kJ]

	// Beside each raw row mass (still needed for the within-row residual
	// below), store the running pairSum — the row prefix the inversion
	// binary-searches instead of scanning.
	dt := m.dt
	uid := dt.uid
	rowCum := ctx.arena.rowCumBuf(nI)
	var pairSum float64
	for i := 0; i < nI; i++ {
		si := ec.gRow[i]
		if row := dt.row(candI[i]); row != nil {
			for _, j := range sup {
				si += phiJ[j] * row[uid[candJ[j]]]
			}
		} else {
			for _, j := range sup {
				si += phiJ[j] * dt.pow(candI[i], candJ[j])
			}
		}
		rm := wx[i] * si
		rowMass[i] = rm
		pairSum += rm
		rowCum[i] = pairSum
	}
	denI := m.phiSum[e.From] + m.cands.gammaSum[e.From]
	denJ := m.phiSum[e.To] + m.cands.gammaSum[e.To]

	w1 := m.cfg.RhoF * m.fr
	if m.curIter <= m.cfg.NoiseBurnIn {
		w1 = 0
	}
	w0 := (1 - m.cfg.RhoF) * m.beta * pairSum / (denI * denJ)

	if randutil.Bernoulli(ctx.rng, w1/(w0+w1)) {
		m.mu[s] = true
		xi, yi := m.drawBlockedNoise(ctx, wx, wy)
		if xi < 0 {
			xi = int(m.ex[s])
		}
		if yi < 0 {
			yi = int(m.ey[s])
		}
		m.ex[s], m.ey[s] = uint16(xi), uint16(yi)
		return
	}
	m.mu[s] = false
	if pairSum > 0 {
		// Row-major hierarchical inversion of one uniform: rows by their
		// cumulative masses (randutil.SearchCum over the stored prefix
		// sums), then columns within the chosen row. Slack from float
		// rounding falls to the last row/column, mirroring
		// randutil.Categorical's fallback.
		u := ctx.rng.Float64() * pairSum
		xi := nI - 1
		if i := randutil.SearchCum(rowCum, u); i >= 0 {
			xi = i
		}
		u -= rowCum[xi] - rowMass[xi] // residual uniform within row xi
		yi := nJ - 1
		wxi := wx[xi]
		row := dt.row(candI[xi])
		// The within-row column pass computes each product, accumulates,
		// and early-exits at the inversion point.
		acc := 0.0
		for j := 0; j < nJ; j++ {
			var d float64
			if row != nil {
				d = row[uid[candJ[j]]]
			} else {
				d = dt.pow(candI[xi], candJ[j])
			}
			acc += wxi * wy[j] * d
			if u < acc {
				yi = j
				break
			}
		}
		m.ex[s], m.ey[s] = uint16(xi), uint16(yi)
	}
	phiI[m.ex[s]]++
	phiJ[m.ey[s]]++
	m.phiSum[e.From]++
	m.phiSum[e.To]++
	m.pg[e.From][m.ex[s]]++
	m.pg[e.To][m.ey[s]]++
}

// updateTweet resamples z_k (Eq. 9) and ν_k (Eq. 6) for one tweeting
// relationship, with the same counts-only-while-location-based
// convention as updateEdge. The per-candidate venue counts come from the
// per-author batch cache (tweetbatch.go) instead of a per-draw gather,
// and the Eq. 6/9 exclusion of the current assignment is applied
// arithmetically (cnt−1, sum−1 — exact, the counts are integer-valued
// floats) to the one candidate index it affects: candidate cities are
// unique within a user's set, so only the current assignment's index
// carries the excluded city. The store is written only when the
// assignment actually moves.
func (m *Model) updateTweet(ctx *sweepCtx, k int) {
	t := m.corpus.Tweets[k]
	u := t.User
	cand := m.cands.cand[u]
	pg := m.pg[u]
	phi := m.phi[u]
	counted := !m.nu[k]

	b := &ctx.batch
	if b.iter != m.curIter || b.user != int32(u) {
		b.resetFor(int32(u), m.curIter)
	}

	// --- z_k (Eq. 9) ---
	zi := int(m.tz[k])
	exCity := cand[zi]
	if counted {
		phi[zi]--
		m.phiSum[u]--
		pg[zi]--
	}
	cum := ctx.arena.cumBuf(len(cand))
	cum = cum[:len(cand)]
	pgv := pg[:len(cand)]
	var total float64
	var e *batchEntry
	if counted {
		// ψ̂ computed inline from the cached counts: the maintained
		// reciprocal multiply off-overlay, the psiFrom division
		// on-overlay (the sum carries the shard's own deltas), and
		// cnt−1/sum−1 at the excluded index zi.
		e = b.entryFor(ctx, t.Venue, cand)
		cnt := e.cnt[:len(cand)]
		if ctx.ovl == nil {
			rs, delta := m.venueRSum, m.cfg.Delta
			for c, l := range cand {
				var p float64
				if c != zi {
					p = (cnt[c] + delta) * rs[l]
				} else {
					p = m.psiFrom(cnt[c]-1, m.venueSum[l]-1)
				}
				total += pgv[c] * p
				cum[c] = total
			}
		} else {
			ovlSum := ctx.ovlSum
			for c, l := range cand {
				cc := cnt[c]
				sum := m.venueSum[l] + ovlSum[l]
				if c == zi {
					cc--
					sum--
				}
				total += pgv[c] * m.psiFrom(cc, sum)
				cum[c] = total
			}
		}
	} else {
		for c := range pgv {
			total += pgv[c]
			cum[c] = total
		}
	}
	next := randutil.InvertCum(ctx.rng, cum)
	if next < 0 {
		next = zi
	}
	m.tz[k] = uint16(next)
	if counted {
		phi[next]++
		m.phiSum[u]++
		pg[next]++
		if cand[next] != exCity {
			b.shift(ctx, cand, zi, t.Venue, -1)
			b.shift(ctx, cand, next, t.Venue, 1)
		}
	}
	zi = next

	// --- ν_k (Eq. 6) ---
	if m.cfg.RhoT <= 0 || m.curIter <= m.cfg.NoiseBurnIn {
		return
	}
	z := cand[zi]
	var psiZ float64
	if counted {
		// Exclude self against the z-step's (since repaired) entry:
		// e.cnt[zi] already includes the moved-in assignment, so −1 on
		// it is the post-move count with this observation removed. The
		// pointer is still valid — only entryFor recycles slots, and
		// none ran since the fill.
		sum := m.venueSum[z]
		if ctx.ovl != nil {
			sum += ctx.ovlSum[z]
		}
		psiZ = m.psiFrom(e.cnt[zi]-1, sum-1)
	} else {
		psiZ = ctx.psi(z, t.Venue)
	}
	thetaZ := b.theta(m, int32(u), zi, counted)
	p1 := m.cfg.RhoT * m.tr[t.Venue]
	p0 := (1 - m.cfg.RhoT) * thetaZ * psiZ
	noisy := randutil.Bernoulli(ctx.rng, p1/(p0+p1))
	if noisy == m.nu[k] {
		return
	}
	m.nu[k] = noisy
	if noisy {
		phi[zi]--
		m.phiSum[u]--
		pg[zi]--
		b.shift(ctx, cand, zi, t.Venue, -1)
	} else {
		phi[zi]++
		m.phiSum[u]++
		pg[zi]++
		b.shift(ctx, cand, zi, t.Venue, 1)
	}
}

// Histogram binning shared by the initial data fit and the EM refits.
const (
	histMin   = 1.0
	histRatio = 1.6
	histBins  = 18
)

// histMiles is the distance the power-law histograms bucket: the
// great-circle distance between cities a and b, clamped to the 1-mile
// floor histMin.
func histMiles(dc *distCalc, a, b gazetteer.CityID) float64 {
	d := dc.miles(a, b)
	if d < histMin {
		d = histMin
	}
	return d
}

// initPowerLawFromData learns (α, β) before sampling begins, exactly the
// way the paper learned its −0.55/0.0045 (Sec. 4.1): bucket observed edges
// by the distance between their endpoints' *observed home labels*, divide
// by the labeled-pair distance distribution, and fit the power law.
// setAlpha/setBeta select which parameters the fit may overwrite. Both
// endpoints of a doubly-labeled edge are labeled homes, so their bin comes
// from the same memo as the denominator's (homeIndex).
func (m *Model) initPowerLawFromData(setAlpha, setBeta bool) {
	num, err := stats.NewLogHistogram(histMin, histRatio, histBins)
	if err != nil {
		return
	}
	hx := m.labeledHomes()
	edges := 0
	for _, e := range m.corpus.Edges {
		hf := m.corpus.Users[e.From].Home
		ht := m.corpus.Users[e.To].Home
		if hf == dataset.NoCity || ht == dataset.NoCity {
			continue
		}
		num.AddBin(hx.bin(num, hx.uid[hf], hx.uid[ht]), 1)
		edges++
	}
	if edges < 100 {
		return // too few doubly-labeled edges; keep the fallback fit
	}
	if alpha, beta, ok := m.fitLawAgainstPairs(num); ok {
		if setAlpha {
			m.alpha = alpha
		}
		if setBeta {
			m.beta = beta
		}
	}
}

// refitPowerLaw is the Gibbs-EM M-step (Sec. 4.5): re-estimate (α, β) from
// the current location-based edge assignments. Following probabilities are
// measured as the ratio of edge counts to labeled-pair counts per
// log-spaced distance bucket, then fitted in log-log space.
func (m *Model) refitPowerLaw() {
	num, err := stats.NewLogHistogram(histMin, histRatio, histBins)
	if err != nil {
		return
	}
	edges := 0
	for s, e := range m.corpus.Edges {
		if m.mu[s] {
			continue
		}
		x := m.cands.cand[e.From][m.ex[s]]
		y := m.cands.cand[e.To][m.ey[s]]
		num.Observe(histMiles(m.dc, x, y))
		edges++
	}
	if edges < 100 {
		return // not enough location-based edges for a stable refit
	}
	if alpha, beta, ok := m.fitLawAgainstPairs(num); ok {
		m.alpha, m.beta = alpha, beta
		if m.dt != nil {
			// New α-epoch: rebuild the pow matrix; the per-edge static
			// caches invalidate lazily on their next visit.
			m.dt.setAlpha(m.alpha)
		}
	}
}

// fitLawAgainstPairs divides the edge-distance histogram by the
// labeled-pair distance histogram and fits a clamped power law.
func (m *Model) fitLawAgainstPairs(num *stats.Histogram) (alpha, beta float64, ok bool) {
	den := m.labeledPairHistogram()
	if den == nil {
		return 0, 0, false
	}
	xs, ps, err := num.Ratio(den)
	if err != nil || len(xs) < 3 {
		return 0, 0, false
	}
	// Weight buckets by their pair support so dense short-range buckets
	// dominate, as in the paper's 2.5·10¹⁰-pair measurement.
	ws := make([]float64, 0, len(xs))
	for i := 0; i < den.Bins(); i++ {
		if den.Count(i) > 0 {
			ws = append(ws, den.Count(i))
		}
	}
	law, _, err := powerlaw.Fit(xs, ps, ws)
	if err != nil {
		return 0, 0, false
	}
	// Clamp to the plausible decay regime to keep the sampler stable.
	alpha = math.Min(-0.05, math.Max(-2.0, law.Alpha))
	beta = law.Beta
	if beta <= 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return 0, 0, false
	}
	return alpha, beta, true
}

// labeledPairHistogram estimates the distance distribution of labeled user
// pairs by sampling, scaled to the full (ordered) pair count. Each sample
// draws two labeled users from the model RNG and reads the bin of their
// homes from the fit's home index, which evaluates a home pair's distance
// only the first time it is drawn.
func (m *Model) labeledPairHistogram() *stats.Histogram {
	hx := m.labeledHomes()
	nL := len(hx.hid)
	if nL < 2 {
		return nil
	}
	h, err := stats.NewLogHistogram(histMin, histRatio, histBins)
	if err != nil {
		return nil
	}
	samples := m.cfg.EMPairSample
	totalPairs := float64(nL) * float64(nL-1)
	scale := totalPairs / float64(samples)
	for i := 0; i < samples; i++ {
		a := m.rng.Intn(nL)
		b := m.rng.Intn(nL)
		for b == a {
			// Resample on collision so every iteration contributes one
			// uniform ordered pair and the totalPairs/samples scale stays
			// exact (skipping would under-weight the histogram by ~1/nL).
			b = m.rng.Intn(nL)
		}
		h.AddBin(hx.bin(h, hx.hid[a], hx.hid[b]), scale)
	}
	return h
}

// homeIndex indexes a fit's labeled homes for the power-law histograms.
// Every distinct labeled home gets a compact id in first-seen (user)
// order, and bins memoizes the histogram bin of each pair of home ids.
// Labeled homes do not move during a fit, so a pair's bin, computed the
// first time the pair is drawn, serves every later draw of it. The RNG
// draws, their order and the per-sample accumulation are those of the
// per-sample evaluation, so the histograms are equal bit for bit.
type homeIndex struct {
	dc *distCalc
	// uid[l] is home city l's compact id, −1 where no labeled user
	// lives; homes lists the distinct homes by compact id.
	uid   []int32
	homes []gazetteer.CityID
	// hid holds each labeled user's compact home id, in user order.
	hid []int32
	// bins[a*H+b] is 2 + the bin of home ids a and b (so bin −1, below
	// range, fits a byte), 0 until the pair is first drawn; symmetric,
	// since the haversine is. Nil above the size cap: every sample then
	// evaluates its pair's distance.
	bins []uint8
}

// newHomeIndex indexes c's labeled homes, with the H×H bin memo when
// there are at most maxH distinct homes.
func newHomeIndex(c *dataset.Corpus, dc *distCalc, maxH int) *homeIndex {
	var seq []gazetteer.CityID
	for _, u := range c.Users {
		if u.Labeled() {
			seq = append(seq, u.Home)
		}
	}
	uid, homes := universeIDs(c.Gaz.Len(), [][]gazetteer.CityID{seq})
	hx := &homeIndex{dc: dc, uid: uid, homes: homes, hid: make([]int32, len(seq))}
	for i, l := range seq {
		hx.hid[i] = uid[l]
	}
	if H := len(homes); H <= maxH {
		hx.bins = make([]uint8, H*H)
	}
	return hx
}

// bin returns h's bin of the clamped distance between the homes with
// compact ids a and b. h has the power-law histograms' binning (histMin,
// histRatio, histBins), which is what the memo holds.
func (hx *homeIndex) bin(h *stats.Histogram, a, b int32) int {
	if hx.bins == nil {
		return h.Bin(histMiles(hx.dc, hx.homes[a], hx.homes[b]))
	}
	H := len(hx.homes)
	if v := hx.bins[int(a)*H+int(b)]; v != 0 {
		return int(v) - 2
	}
	i := h.Bin(histMiles(hx.dc, hx.homes[a], hx.homes[b]))
	hx.bins[int(a)*H+int(b)], hx.bins[int(b)*H+int(a)] = uint8(i+2), uint8(i+2)
	return i
}

// labeledHomes returns the fit's home index, building it on first use.
// Fit drops it on return; snapshot-loaded models never fit a power law,
// so they never build one.
func (m *Model) labeledHomes() *homeIndex {
	if m.homes == nil {
		m.homes = newHomeIndex(m.corpus, m.dc, m.maxU)
	}
	return m.homes
}

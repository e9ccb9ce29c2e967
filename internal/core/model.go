package core

import (
	"crypto/sha256"
	"errors"
	"math/rand"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/powerlaw"
	"mlprofile/internal/randutil"
)

// Model is a fitted MLP instance: the sampled latent state plus everything
// needed to read out profiles (Eq. 10), relationship explanations, and the
// refined (α, β).
type Model struct {
	cfg    Config
	corpus *dataset.Corpus
	dc     *distCalc
	rng    *rand.Rand

	// Distance layer (nil for MLP_C, which models no following
	// relationships): the distance table, whose universe matrices live
	// only while Fit runs, and the per-edge static weight caches of the
	// blocked kernel (see disttable.go).
	dt   *distTable
	etab []edgeCache

	// homes is the labeled-home index of the power-law histograms (see
	// homeIndex), built at their first use in a fit and dropped when Fit
	// returns. maxU caps both its bin memo and the distance table's
	// universe matrices.
	homes *homeIndex
	maxU  int

	useF, useT bool

	// phaseSec accumulates wall-clock seconds per fit phase (init/… /
	// edge / tweet / fold / em / …), written only by the fit coordinator
	// between barriers (see phase.go). Nil until the first phase.
	phaseSec map[string]float64

	// Candidacy and priors. Read-only once built, so models loaded over
	// interchangeable corpora may share one (ReloadSnapshot).
	cands *candidateSet
	// world is the corpus fingerprint a single-file snapshot load
	// verified; nil on fitted models and on directory loads.
	// ReloadSnapshot shares cands only with a later load that verifies
	// the same fingerprint.
	world *[dataset.NumFingerprintSections][sha256.Size]byte

	// Collapsed profile counts ϕ_i (per user, indexed like cands.cand[u]).
	phi    [][]float64
	phiSum []float64
	// pg mirrors ϕ+γ per candidate — the θ̂ numerator every weight loop
	// otherwise re-adds per candidate. It is built from fresh sums after
	// initState's assignments and then shifted ±1 in lockstep with every
	// ϕ mutation. A ±1 shift of a float can round at a power-of-two
	// crossing, so pg may drift from the fresh sum by an ulp-scale random
	// walk, which the golden fingerprints pin as part of the chain. The
	// µ/ν factors (theta) keep using fresh ϕ+γ. Nil on snapshot-loaded
	// models, which never sweep.
	pg [][]float64

	// Collapsed venue counts φ_{l,v}, accumulating location-based tweets
	// only (ν = 0), stored venue-major: one open-addressed (city, count)
	// row per venue (see psistore.go). venueSum[l] is the per-city total.
	ps        *psiStore
	venueSum  []float64
	numVenues int
	// deltaTotal caches ψ̂'s smoothing denominator addend δ|V| (the same
	// product psiFrom would otherwise recompute per candidate).
	deltaTotal float64
	// venueRSum holds 1/(venueSum[l]+δ|V|), refreshed on every count
	// mutation: the tweet fills multiply by it instead of dividing per
	// candidate — one division per ±1 shift in place of ≤MaxCandidates
	// divisions per draw. The product (cnt+δ)·rsum differs from the
	// quotient by ≤2 ulp, which the golden fingerprints pin as part of
	// the chain. Nil on snapshot-loaded models.
	venueRSum []float64

	// Edge latent state: selector µ_s and candidate indexes of x_s, y_s.
	mu     []bool
	ex, ey []uint16

	// Tweet latent state: selector ν_k and candidate index of z_k.
	nu []bool
	tz []uint16

	// Random models.
	fr float64   // F_R: P(edge) = S/N²
	tr []float64 // T_R: per-venue empirical tweet probability

	// Power-law parameters (refined by Gibbs-EM when enabled).
	alpha, beta float64

	iterationsRun int
	curIter       int // 1-based index of the sweep in progress

	// Sweep execution state. seq is the sequential sampler's context (the
	// model RNG plus reusable scratch, so the hot path never allocates);
	// with Shards>1 the user partition and per-shard contexts drive
	// sweepSharded (see shard.go).
	seq    *sweepCtx
	splan  *shardPlan
	shCtxs []*sweepCtx
}

// errNoObservations refuses a fit whose corpus holds none of the
// relationships its variant consumes: no edges for MLP_U, no tweets for
// MLP_C, neither for MLP.
var errNoObservations = errors.New("core: corpus has no observations for the chosen variant")

// Fit runs MLP inference over the corpus and returns the fitted model.
func Fit(c *dataset.Corpus, cfg Config) (*Model, error) {
	return fit(c, cfg, maxDenseUniverse)
}

// fit is Fit with the distance table's universe budget as a parameter,
// so tests can force the single-lookup fallback of every kernel. The
// budget caps the home index's bin memo too (labeledHomes).
func fit(c *dataset.Corpus, cfg Config, maxU int) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := checkCandidateLimit(cfg, c.Gaz); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:    cfg,
		corpus: c,
		dc:     newDistCalc(c.Gaz),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		useF:   cfg.Variant != TweetingOnly,
		useT:   cfg.Variant != FollowingOnly,
		alpha:  cfg.Alpha,
		beta:   cfg.Beta,
		maxU:   maxU,
	}
	m.seq = &sweepCtx{m: m, rng: m.rng}
	hasObs := (m.useF && len(c.Edges) > 0) || (m.useT && len(c.Tweets) > 0)
	if !hasObs {
		return nil, errNoObservations
	}

	// Zero Alpha/Beta means "learn the location-based following model from
	// the data", the paper's own Sec. 4.1 procedure. The paper's Twitter
	// fit backstops corpora too small to measure.
	if m.alpha == 0 {
		m.alpha = powerlaw.PaperTwitterFit.Alpha
	}
	if m.beta == 0 {
		m.beta = powerlaw.PaperTwitterFit.Beta
	}
	if m.useF && (cfg.Alpha == 0 || cfg.Beta == 0) {
		m.phase("init/powerlaw", func() { m.initPowerLawFromData(cfg.Alpha == 0, cfg.Beta == 0) })
	}
	m.phase("init/candidates", func() { m.cands = buildCandidates(c, cfg, m.useF, m.useT) })

	// The distance table is built over the candidate universe, after the
	// initial (α, β) fit so its first α-epoch memoizes the exponent the
	// sweeps will actually use. Neither step draws from the RNG.
	if m.useF {
		m.phase("init/disttable", func() {
			m.dt = newDistTable(m.dc, c.Gaz.Len(), m.cands.cand, maxU)
			m.dt.setAlpha(m.alpha)
		})
		if cfg.BlockedSampler {
			m.etab = make([]edgeCache, len(c.Edges))
		}
	}

	m.phase("init/state", m.initState)

	for iter := 1; iter <= cfg.Iterations; iter++ {
		m.curIter = iter
		m.sweep()
		if cfg.GibbsEM && m.useF && iter%cfg.EMInterval == 0 {
			if iter == cfg.Iterations && m.dt != nil {
				// No sweep reads the final refit's α-epoch, so the
				// matrices go first and its setAlpha only moves α and
				// the epoch.
				m.dt.release()
			}
			m.phase("em", m.refitPowerLaw)
		}
		m.iterationsRun = iter
		if cfg.OnIteration != nil {
			cfg.OnIteration(iter, m)
		}
	}
	// The universe matrices live only while the sweeps need them; every
	// later reader is served by single lookups of the same values. The
	// home index serves only the power-law fits, which are over too.
	if m.dt != nil {
		m.dt.release()
	}
	m.homes = nil
	return m, nil
}

// initState builds the random models, draws initial assignments from the
// priors, and initializes the collapsed counts.
func (m *Model) initState() {
	c := m.corpus
	n := len(c.Users)

	m.phi = slabRows(m.cands.cand)
	m.phiSum = make([]float64, n)

	m.numVenues = c.Venues.Len()
	m.deltaTotal = m.cfg.Delta * float64(m.numVenues)
	L := c.Gaz.Len()
	m.ps = newPsiStore(m.numVenues)
	m.venueSum = make([]float64, L)
	m.venueRSum = make([]float64, L)
	inv0 := 1 / m.deltaTotal
	for l := range m.venueRSum {
		m.venueRSum[l] = inv0
	}

	m.initRandomModels()

	// Initial relationship state. Invariant: every relationship starts in
	// the location-based component (µ = ν = 0 — the zero value of the
	// freshly allocated selector slices; the noise selectors only activate
	// after NoiseBurnIn sweeps), so every initial assignment is counted in
	// ϕ and every initial tweet assignment feeds the venue counts.
	if m.useF {
		S := len(c.Edges)
		m.mu = make([]bool, S)
		m.ex = make([]uint16, S)
		m.ey = make([]uint16, S)
		for s, e := range c.Edges {
			xi := randutil.Categorical(m.rng, m.cands.gamma[e.From])
			yi := randutil.Categorical(m.rng, m.cands.gamma[e.To])
			m.ex[s] = uint16(xi)
			m.ey[s] = uint16(yi)
			m.phi[e.From][xi]++
			m.phiSum[e.From]++
			m.phi[e.To][yi]++
			m.phiSum[e.To]++
		}
	}

	if m.useT {
		K := len(c.Tweets)
		m.nu = make([]bool, K)
		m.tz = make([]uint16, K)
		for k, t := range c.Tweets {
			zi := randutil.Categorical(m.rng, m.cands.gamma[t.User])
			m.tz[k] = uint16(zi)
			m.phi[t.User][zi]++
			m.phiSum[t.User]++
			m.shiftVenue(m.cands.cand[t.User][zi], t.Venue, 1)
		}
	}

	// The ϕ+γ mirror starts from fresh sums over the initial counts;
	// the kernels shift it alongside every later ϕ mutation.
	m.pg = slabRows(m.cands.cand)
	for u, row := range m.pg {
		phi, gamma := m.phi[u], m.cands.gamma[u]
		for c := range row {
			row[c] = phi[c] + gamma[c]
		}
	}
}

// slabRows carves one zeroed row per user, sized like the user's
// candidate set, out of a single allocation in user order — the order
// the sweeps walk them — so the fill kernels stream stride-1 memory
// instead of chasing per-user allocations (DESIGN.md §14). Full-capacity
// re-slices keep a row from ever growing into its neighbor.
func slabRows(cand [][]gazetteer.CityID) [][]float64 {
	total := 0
	for _, c := range cand {
		total += len(c)
	}
	slab := make([]float64, total)
	rows := make([][]float64, len(cand))
	off := 0
	for u, c := range cand {
		rows[u] = slab[off : off+len(c) : off+len(c)]
		off += len(c)
	}
	return rows
}

// initRandomModels learns the empirical random models F_R and T_R from the
// corpus (Sec. 4.2). Deterministic in the corpus alone, so the snapshot
// loader rebuilds them instead of serializing them.
func (m *Model) initRandomModels() {
	c := m.corpus
	n := len(c.Users)
	if n > 1 {
		m.fr = float64(len(c.Edges)) / (float64(n) * float64(n-1))
	}
	m.tr = make([]float64, m.numVenues)
	if len(c.Tweets) > 0 {
		for _, t := range c.Tweets {
			m.tr[t.Venue]++
		}
		for v := range m.tr {
			m.tr[v] /= float64(len(c.Tweets))
		}
	}
}

// shiftVenue moves φ_{l,v} and the per-city total by d, keeping the
// maintained reciprocal current.
func (m *Model) shiftVenue(l gazetteer.CityID, v gazetteer.VenueID, d float64) {
	m.ps.add(v, l, d)
	m.venueSum[l] += d
	m.venueRSum[l] = 1 / (m.venueSum[l] + m.deltaTotal)
}

// psi returns the collapsed venue probability ψ̂_l(v) (Eq. 6's second
// factor): (φ_{l,v} + δ) / (Σ_v φ_{l,v} + δ|V|).
func (m *Model) psi(l gazetteer.CityID, v gazetteer.VenueID) float64 {
	return m.psiFrom(m.ps.get(v, l), m.venueSum[l])
}

// psiFrom is the ψ̂ smoothing shared by the sequential estimate and the
// shards' overlay reads (sweepCtx.psi).
func (m *Model) psiFrom(cnt, sum float64) float64 {
	return (cnt + m.cfg.Delta) / (sum + m.deltaTotal)
}

// theta returns the collapsed profile probability of candidate idx for
// user u — the (ϕ + γ)/(ϕ_i + Σγ) factor of Eqs. 5–9. When excludeSelf,
// one occurrence (the caller's own counted assignment) is removed first,
// giving the paper's "−1" form.
func (m *Model) theta(u dataset.UserID, idx int, excludeSelf bool) float64 {
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
	return num / den
}

// Config returns the (defaulted) configuration the model was fitted with.
func (m *Model) Config() Config { return m.cfg }

// AlphaBeta returns the current power-law parameters — the initial
// configuration values, or the Gibbs-EM refinement when enabled.
func (m *Model) AlphaBeta() (alpha, beta float64) { return m.alpha, m.beta }

// Iterations returns the number of Gibbs sweeps performed.
func (m *Model) Iterations() int { return m.iterationsRun }

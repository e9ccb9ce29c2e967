// Package core implements MLP, the multiple location profiling model of
// Li, Wang & Chang (VLDB 2012): a generative model of following and
// tweeting relationships driven by users' latent multi-location profiles,
// inferred with collapsed Gibbs sampling (paper Sec. 4, Eqs. 4–10).
//
// The three key devices of the paper are all here:
//
//   - location-based generation: edges follow a distance power law
//     β·d^α, tweets follow per-location venue multinomials ψ_l;
//   - mixture of observations: per-relationship binary selectors (µ, ν)
//     route each observation to either the location-based model or an
//     empirical random model (F_R, T_R), absorbing noise;
//   - partially available supervision: observed home locations enter as
//     boosted Dirichlet pseudo-counts, and per-user candidacy vectors
//     restrict profiles to locations observed in the user's own
//     relationships.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Variant selects which observation types the model consumes.
type Variant int

const (
	// Full is MLP: following and tweeting relationships (the paper's MLP).
	Full Variant = iota
	// FollowingOnly is MLP_U: following relationships only.
	FollowingOnly
	// TweetingOnly is MLP_C: tweeting relationships only.
	TweetingOnly
)

// String names the variant as the paper does.
func (v Variant) String() string {
	switch v {
	case FollowingOnly:
		return "MLP_U"
	case TweetingOnly:
		return "MLP_C"
	default:
		return "MLP"
	}
}

// Config holds the model hyperparameters Ω and sampler controls. A zero
// field takes the default its comment names, so the zero value runs MLP
// over both relationship types: 20 sweeps of the exact sequential
// per-variable sampler, the noise mixture on after 3 burn-in sweeps, and
// (α, β) fitted once from labeled pairs before the first sweep
// (Sec. 4.1) and then held. The paper also refits (α, β) by Gibbs-EM
// while it samples (Sec. 4.5); GibbsEM turns that on.
type Config struct {
	Seed int64
	// Variant selects MLP / MLP_U / MLP_C.
	Variant Variant

	// Iterations is the number of Gibbs sweeps (default 20; the paper
	// observes convergence in ~14).
	Iterations int

	// Shards is the number of user partitions each Gibbs sweep is run
	// over, and the sampler's only parallelism (default 1). Shards=1 is
	// the paper's exact sequential collapsed sampler on the model RNG,
	// bit-for-bit reproducible from Seed on any machine. Shards>1 is an
	// opt-in parallel chain: users are partitioned by dataset.ShardOf,
	// each shard sweeps its intra-shard edges and its users' tweets
	// concurrently on its own RNG stream and count overlay, and boundary
	// edges (endpoints on different shards) are resampled after a
	// per-sweep barrier against synced counts (see DESIGN.md §6 and §11).
	// Deterministic for a fixed (Seed, Shards) pair, but a different chain
	// for every shard count. At most 65,536: each shard's stream key
	// holds the shard index in 16 bits.
	Shards int

	// RhoF and RhoT are the mixture priors for noisy following/tweeting
	// relationships (default 0.1 each).
	RhoF, RhoT float64

	// NoiseBurnIn is the number of initial sweeps during which the noise
	// mixture is held off (every relationship treated as location-based)
	// so profiles can form before the selectors start routing weakly
	// supported relationships to the random models (default 3).
	NoiseBurnIn int

	// Alpha and Beta parameterize the location-based following model
	// P(f|x,y) = Beta·d(x,y)^Alpha. Zero values mean "learn from the data
	// at initialization" — the paper's own procedure (Sec. 4.1 measures
	// following probabilities over labeled-pair distances and fits the
	// power law, obtaining −0.55 and 0.0045 on its Twitter crawl). Set
	// explicit values to skip the initial fit. When GibbsEM is set they
	// are additionally re-estimated during sampling.
	Alpha, Beta float64

	// Tau is the candidacy prior value τ (default 0.1; "values of hyper
	// parameter below 1 prefer sparse distributions").
	Tau float64
	// GammaBoost is the diagonal of the boosting matrix Λ times the base
	// prior: the pseudo-count added to a labeled user's observed home
	// location (default 25).
	GammaBoost float64
	// Delta is the symmetric Dirichlet prior on per-location venue
	// multinomials ψ_l (default 0.01).
	Delta float64

	// MaxCandidates caps a user's candidacy vector size (default 40; at
	// most 65,536, the candidates a uint16 assignment index addresses).
	MaxCandidates int
	// MaxVenueSenses caps how many senses of an ambiguous venue feed a
	// user's candidate set (default 5).
	MaxVenueSenses int

	// GibbsEM enables the outer Gibbs-EM loop re-estimating (Alpha, Beta)
	// every EMInterval iterations (default interval 5; negative is an
	// error).
	GibbsEM    bool
	EMInterval int
	// EMPairSample is the number of labeled user pairs sampled for the
	// denominator histogram of the initial power-law fit and of every
	// M-step (default 200000; negative is an error). Each sample costs two
	// or more RNG draws; a pair's distance bin is computed once per fit
	// and then read from a memo over the distinct labeled homes.
	EMPairSample int

	// BlockedSampler replaces the paper's per-variable updates with a
	// blocked joint draw of (µ, x, y) per edge — an ablation of the
	// inference scheme, not of the model. The kernel runs in a pruned
	// factored form (O(nI+nJ+nI·kJ) per edge instead of the joint's
	// O(nI·nJ) pair weights), which is what makes it usable at the
	// default MaxCandidates.
	BlockedSampler bool

	// DisableNoiseMixture forces every relationship location-based
	// (ρ_f = ρ_t = 0) — the ablation of the paper's first mixture level.
	DisableNoiseMixture bool
	// DisableSupervision zeroes GammaBoost — the "floating clusters"
	// failure mode of Sec. 4.3.
	DisableSupervision bool
	// AllLocationCandidates disables candidacy vectors: every location in
	// L is a candidate for every user (the efficiency ablation; quadratic
	// in |L|, use only on small worlds, and refused above 65,536 cities).
	AllLocationCandidates bool

	// OnIteration, when set, is invoked after every Gibbs sweep with the
	// 1-based iteration number; used to trace convergence (Fig. 5).
	OnIteration func(iter int, m *Model)
}

func (c Config) withDefaults() Config {
	if c.Iterations == 0 {
		c.Iterations = 20
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.RhoF == 0 {
		c.RhoF = 0.1
	}
	if c.RhoT == 0 {
		c.RhoT = 0.1
	}
	if c.NoiseBurnIn == 0 {
		c.NoiseBurnIn = 3
	}
	if c.Tau == 0 {
		c.Tau = 0.1
	}
	if c.GammaBoost == 0 {
		c.GammaBoost = 25
	}
	if c.Delta == 0 {
		c.Delta = 0.01
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 40
	}
	if c.MaxVenueSenses == 0 {
		c.MaxVenueSenses = 5
	}
	if c.EMInterval == 0 {
		c.EMInterval = 5
	}
	if c.EMPairSample == 0 {
		c.EMPairSample = 200000
	}
	if c.DisableNoiseMixture {
		c.RhoF, c.RhoT = 0, 0
	}
	if c.DisableSupervision {
		c.GammaBoost = 0
	}
	return c
}

func (c Config) validate() error {
	// Every range check below is a comparison, and each is false for
	// NaN, so non-finite values are refused first, by name.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"RhoF", c.RhoF}, {"RhoT", c.RhoT}, {"Alpha", c.Alpha}, {"Beta", c.Beta},
		{"Tau", c.Tau}, {"GammaBoost", c.GammaBoost}, {"Delta", c.Delta},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s=%v must be finite", f.name, f.v)
		}
	}
	if c.Iterations < 1 {
		return errors.New("core: Iterations must be >= 1")
	}
	if c.Shards < 1 {
		return errors.New("core: Shards must be >= 1 (or zero for single-chain)")
	}
	if c.Shards > maxShards {
		return fmt.Errorf("core: Shards=%d exceeds the limit of %d (shard field of the sweep RNG stream key)", c.Shards, maxShards)
	}
	if c.RhoF < 0 || c.RhoF >= 1 || c.RhoT < 0 || c.RhoT >= 1 {
		return fmt.Errorf("core: noise priors (%f, %f) must lie in [0,1)", c.RhoF, c.RhoT)
	}
	if c.Alpha > 0 {
		return errors.New("core: Alpha must be negative (distance decay) or zero for auto-fit")
	}
	if c.Beta < 0 {
		return errors.New("core: Beta must be positive or zero for auto-fit")
	}
	if c.Tau <= 0 || c.Delta <= 0 {
		return errors.New("core: Tau and Delta must be positive")
	}
	if c.GammaBoost < 0 {
		return errors.New("core: GammaBoost must be non-negative")
	}
	if c.MaxCandidates < 1 || c.MaxVenueSenses < 1 {
		return errors.New("core: candidate caps must be >= 1")
	}
	if c.MaxCandidates > candidateIndexLimit {
		return fmt.Errorf("core: MaxCandidates=%d exceeds the limit of %d (uint16 candidate indexes)", c.MaxCandidates, candidateIndexLimit)
	}
	if c.EMInterval < 0 {
		return fmt.Errorf("core: EMInterval=%d must be positive (or zero for the default)", c.EMInterval)
	}
	if c.EMPairSample < 0 {
		return fmt.Errorf("core: EMPairSample=%d must be positive (or zero for the default)", c.EMPairSample)
	}
	return nil
}

// Package mlprofile is a from-scratch Go reproduction of "Multiple
// Location Profiling for Users and Relationships from Social Network and
// Content" (Li, Wang & Chang, VLDB 2012).
//
// The library profiles the locations of social-network users from two
// observation types — who they follow and which venues they tweet — using
// MLP, a generative probabilistic model with three distinctive devices:
//
//   - a location-based following model (distance power law β·d^α) and a
//     location-based tweeting model (per-location venue multinomials);
//   - per-relationship noise selectors that route implausible
//     relationships to empirically learned random models;
//   - partial supervision: some users' registered home locations enter as
//     boosted Dirichlet priors, and per-user candidacy vectors restrict
//     profiles to locations observed in each user's own relationships.
//
// Inference is collapsed Gibbs sampling; the result is a multi-location
// profile per user plus a location assignment (an "explanation") per
// relationship.
//
// # Quick start
//
//	world, _ := mlprofile.GenerateWorld(mlprofile.WorldConfig{Seed: 1, NumUsers: 2000})
//	model, _ := mlprofile.Fit(&world.Corpus, mlprofile.ModelConfig{Iterations: 15})
//	profile := model.Profile(42)             // multi-location profile of user 42
//	home := model.Home(42)                   // predicted home location
//	exp, _ := model.ExplainEdge(0)           // why does edge 0 exist?
//
// The paper's published baselines (Backstrom et al. WWW'10 and Cheng et
// al. CIKM'10), its evaluation measures, and a harness regenerating every
// table and figure of its evaluation section are included; see the
// Experiments function and the examples directory.
package mlprofile

import (
	"mlprofile/internal/basec"
	"mlprofile/internal/baseu"
	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/eval"
	"mlprofile/internal/experiments"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/relbase"
	"mlprofile/internal/serve"
	"mlprofile/internal/synth"
)

// Core data model.
type (
	// Dataset bundles a corpus with optional generator ground truth.
	Dataset = dataset.Dataset
	// Corpus holds users, following relationships, tweeting relationships
	// and the location universe.
	Corpus = dataset.Corpus
	// User is one account, possibly carrying a parsed home label.
	User = dataset.User
	// UserID indexes users within one corpus.
	UserID = dataset.UserID
	// FollowEdge is one following relationship.
	FollowEdge = dataset.FollowEdge
	// TweetRel is one tweeting relationship (user mentions venue).
	TweetRel = dataset.TweetRel
	// GroundTruth is the generator's hidden state for synthetic corpora.
	GroundTruth = dataset.GroundTruth
	// WeightedLocation is one (location, probability) profile entry.
	WeightedLocation = dataset.WeightedLocation

	// Gazetteer is the candidate location universe.
	Gazetteer = gazetteer.Gazetteer
	// City is one candidate location.
	City = gazetteer.City
	// CityID indexes cities within a gazetteer.
	CityID = gazetteer.CityID
	// VenueVocab is the venue-name vocabulary.
	VenueVocab = gazetteer.VenueVocab
	// VenueID indexes venue names.
	VenueID = gazetteer.VenueID
)

// NoCity marks an absent city reference.
const NoCity = dataset.NoCity

// MLP model.
type (
	// Model is a fitted MLP instance.
	Model = core.Model
	// ModelConfig holds MLP hyperparameters and sampler controls.
	ModelConfig = core.Config
	// Variant selects MLP / MLP_U / MLP_C.
	Variant = core.Variant
	// EdgeExplanation is a profiled following relationship.
	EdgeExplanation = core.EdgeExplanation
	// TweetExplanation is a profiled tweeting relationship.
	TweetExplanation = core.TweetExplanation
)

// Model variants (paper Sec. 5, "Methods").
const (
	// MLP consumes both following and tweeting relationships.
	MLP = core.Full
	// MLPFollowingOnly is the paper's MLP_U.
	MLPFollowingOnly = core.FollowingOnly
	// MLPTweetingOnly is the paper's MLP_C.
	MLPTweetingOnly = core.TweetingOnly
)

// Fit runs MLP inference over a corpus.
func Fit(c *Corpus, cfg ModelConfig) (*Model, error) { return core.Fit(c, cfg) }

// SaveModel writes a fitted model's snapshot to path (atomically): the
// collapsed counts, refined (α, β), final assignments, config, and a
// fingerprint of the world it was fitted against. See DESIGN.md §10.
func SaveModel(m *Model, path string) error { return m.SaveSnapshot(path) }

// SaveShardedModel writes a fitted model as a sharded snapshot
// directory — one slice file per ModelConfig.Shards shard plus a JSON
// manifest — loadable by LoadModel. See DESIGN.md §11.
func SaveShardedModel(m *Model, dir string) error { return m.SaveShardedSnapshot(dir) }

// LoadModel reads a snapshot written by SaveModel (a file) or
// SaveShardedModel (a directory) and reconstructs the fitted model
// against the given corpus — which must be the same world, verified by
// fingerprint. The loaded model answers every readout (profiles,
// explanations, venue probabilities) bit-for-bit identically to the
// model that wrote the snapshot; it cannot resume sampling.
func LoadModel(c *Corpus, path string) (*Model, error) { return core.LoadSnapshot(c, path) }

// LoadModelShard reads exactly one slice of a sharded snapshot
// directory: the returned model carries fitted state only for the
// users, edges and tweets dataset.ShardOf assigns to that shard — the
// partial backend the serving tier's shard router places traffic onto.
// See DESIGN.md §12.
func LoadModelShard(c *Corpus, dir string, shard int) (*Model, error) {
	return core.LoadSnapshotShard(c, dir, shard)
}

// SnapshotShards reports the shard count of a sharded snapshot
// directory from its manifest, without decoding any slice.
func SnapshotShards(dir string) (int, error) { return core.SnapshotShardCount(dir) }

// ModelServer is the long-lived read-only HTTP serving layer over a
// fitted model (see cmd/mlpserve and DESIGN.md §10, §12).
type ModelServer = serve.Server

// ServeOptions tunes a ModelServer: the snapshot path behind POST
// /reload hot swaps, the rendered-profile cache bound, and partial
// placement-shard declarations. See DESIGN.md §12.
type ServeOptions = serve.Config

// ShardRouter fronts one backend per placement shard and routes every
// user-scoped request with dataset.ShardOf — the same placement the
// sharded fitter and sharded snapshots use. See DESIGN.md §12.
type ShardRouter = serve.Router

// Serve builds an HTTP server answering profile, explanation and
// venue-probability lookups over a fitted (or snapshot-loaded) model.
// Run it with ListenAndServe, or mount Handler() into an existing mux.
func Serve(m *Model, c *Corpus) *ModelServer { return serve.New(m, c) }

// ServeWith is Serve with explicit options (hot-swap snapshot path,
// cache size, shard declaration).
func ServeWith(m *Model, c *Corpus, opts ServeOptions) *ModelServer {
	return serve.NewServer(m, c, opts)
}

// ServeSharded loads every slice of a sharded snapshot directory as an
// in-process partial backend and fronts them with a ShardRouter — the
// single-process form of the routed serving tier.
func ServeSharded(c *Corpus, snapshotDir string, opts ServeOptions) (*ShardRouter, error) {
	return serve.NewShardRouter(c, snapshotDir, opts)
}

// Synthetic world generation.
type (
	// WorldConfig parameterizes synthetic world generation.
	WorldConfig = synth.Config
)

// GenerateWorld builds a synthetic Twitter-like world with ground truth,
// the substrate substituting the paper's 139,180-user crawl.
func GenerateWorld(cfg WorldConfig) (*Dataset, error) { return synth.Generate(cfg) }

// BuildGazetteer constructs a U.S. gazetteer of the given size: ~200 real
// anchor cities expanded procedurally, with realistic name ambiguity.
func BuildGazetteer(cities int, seed int64) (*Gazetteer, error) {
	return gazetteer.BuildDefault(cities, seed)
}

// BuildVenueVocab derives the venue vocabulary from a gazetteer.
func BuildVenueVocab(g *Gazetteer) *VenueVocab { return gazetteer.BuildVenueVocab(g) }

// LoadDataset reads a dataset directory written by (*Dataset).Save.
func LoadDataset(dir string) (*Dataset, error) { return dataset.Load(dir) }

// LoadDatasetStreamed reads a dataset directory through the chunked
// streaming reader: identical result to LoadDataset, bounded peak
// memory during the parse. See DESIGN.md §11.
func LoadDatasetStreamed(dir string) (*Dataset, error) { return dataset.LoadStreamed(dir) }

// KFold partitions user IDs into k folds for cross validation.
func KFold(n, k int, seed int64) [][]UserID { return dataset.KFold(n, k, seed) }

// Baselines.
type (
	// BaseUConfig configures the Backstrom et al. WWW'10 baseline.
	BaseUConfig = baseu.Config
	// BaseUModel is a fitted BaseU predictor.
	BaseUModel = baseu.Model
	// BaseCConfig configures the Cheng et al. CIKM'10 baseline.
	BaseCConfig = basec.Config
	// BaseCModel is a fitted BaseC classifier.
	BaseCModel = basec.Model
	// RelBaseline is the home-location relationship-explanation baseline.
	RelBaseline = relbase.Explainer
)

// FitBaseU fits the social-network baseline.
func FitBaseU(c *Corpus, cfg BaseUConfig) (*BaseUModel, error) { return baseu.Fit(c, cfg) }

// FitBaseC fits the tweet-content baseline.
func FitBaseC(c *Corpus, cfg BaseCConfig) (*BaseCModel, error) { return basec.Fit(c, cfg) }

// NewRelBaseline builds the home-location relationship explainer.
func NewRelBaseline(c *Corpus, homes []CityID) *RelBaseline { return relbase.New(c, homes) }

// Evaluation measures (paper Sec. 5).
type (
	// HomeEval accumulates ACC@m home-prediction results.
	HomeEval = eval.HomeEval
	// MultiLocEval accumulates DP@K / DR@K.
	MultiLocEval = eval.MultiLocEval
	// RelEval accumulates relationship-explanation accuracy.
	RelEval = eval.RelEval
)

// Experiments harness: regenerates the paper's tables and figures.
type (
	// ExperimentOptions sizes an experiment run.
	ExperimentOptions = experiments.Options
	// ExperimentRunner lazily computes each paper table/figure.
	ExperimentRunner = experiments.Runner
)

// Experiments creates a runner over a freshly generated world.
func Experiments(opts ExperimentOptions) (*ExperimentRunner, error) {
	return experiments.NewRunner(opts)
}

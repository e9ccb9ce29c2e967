// Package serve implements the serving tier over fitted models
// (DESIGN.md §10 and §12): an HTTP JSON API answering profile,
// explanation and venue-probability lookups from snapshots, instead of
// the CLIs' refit-per-invocation.
//
// Everything served is a pure read of a fitted model — Profile,
// MAPExplainEdge/ExplainEdge, VenueProbability — which is safe for
// arbitrary concurrent readers (a model is immutable after load; no
// Gibbs state mutates at serve time). The handlers therefore share the
// model with no locking. Hot snapshot swap keeps that property: the
// model, together with its generation stamp and rendered-readout cache,
// lives behind one atomic pointer; POST /reload (or SIGHUP via
// cmd/mlpserve) loads the new snapshot off the serving path — the world
// fingerprint check refusing mismatched corpora exactly as LoadSnapshot
// always has — and swaps the pointer, so readers never block and never
// observe a half-loaded model.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
)

// MaxTopK caps the ?top= profile cut: above it the request is clamped,
// not refused, so a greedy client cannot size allocations (or cache
// entries) arbitrarily. Profiles are bounded by MaxCandidates anyway;
// 100 is far past any real readout.
const MaxTopK = 100

// MaxBulkUsers caps one POST /profiles batch.
const MaxBulkUsers = 1024

// maxBulkBody bounds the bulk request body read.
const maxBulkBody = 1 << 20

// DefaultCacheSize is the rendered-profile LRU bound when Config leaves
// CacheSize zero.
const DefaultCacheSize = 4096

// Config tunes a Server beyond the model+corpus pair.
type Config struct {
	// Snapshot, when set, enables POST /reload: the path (file or
	// sharded directory) re-read on every reload request.
	Snapshot string

	// CacheSize bounds the rendered top-K profile LRU. 0 means
	// DefaultCacheSize; negative disables caching.
	CacheSize int

	// Shard/Shards declare a partial placement backend serving only the
	// users dataset.ShardOf assigns to Shard out of Shards (the model
	// must come from core.LoadSnapshotShard). Shards == 0 means a full
	// model. Partial backends answer profile lookups only: edge and
	// venue readouts need state other shards own.
	Shard, Shards int

	// Logf receives serve-layer diagnostics; nil discards them.
	Logf func(format string, args ...any)

	// Fault tolerance for the routed tier (DESIGN.md §13). Every knob
	// follows one convention: zero means the production default from
	// forward.go, negative disables the mechanism. Servers ignore these;
	// only a Router consumes them.

	// BackendTimeout bounds one forwarded backend attempt end to end
	// (dial + headers + body for proxies, the handler run for in-process
	// backends). Default DefaultBackendTimeout.
	BackendTimeout time.Duration

	// Retries is the number of extra attempts for idempotent GET
	// forwards that fail at the transport layer. Default DefaultRetries.
	Retries int

	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt (capped at MaxRetryBackoff) and is jittered by up to one
	// base. Default DefaultRetryBackoff.
	RetryBackoff time.Duration

	// RetrySeed seeds the backoff jitter stream. Any fixed seed makes
	// the whole schedule deterministic (see backoffSchedule).
	RetrySeed int64

	// BreakerThreshold consecutive transport failures open a backend's
	// circuit; while open the router fails fast. Default
	// DefaultBreakerThreshold; negative disables breakers.
	BreakerThreshold int

	// BreakerCooldown is the open → half-open delay. Default
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration

	// ProbeInterval is the active health-probe cadence for
	// Router.StartProbes. Zero or negative disables probing.
	ProbeInterval time.Duration
}

// state is everything one snapshot generation serves from. It is
// immutable once installed; a reload builds a whole new state (with an
// empty cache — swapping the pointer is the cache invalidation).
type state struct {
	model      *core.Model
	cache      *lruCache
	generation uint64
	loadedAt   time.Time
}

// Server answers read-only queries over one fitted model (hot-swappable
// via Reload) and the corpus it was fitted against.
type Server struct {
	corpus *dataset.Corpus

	// byHandle resolves /profile/{handle} lookups; built once at
	// construction from the corpus (which never changes — snapshot
	// swaps are refused for a different world), read-only afterwards.
	byHandle map[string]dataset.UserID

	cur      atomic.Pointer[state]
	reloadMu sync.Mutex // serializes Reload; readers never take it

	cfg     Config
	started time.Time
	metrics *metrics
	logf    func(format string, args ...any)
}

// New builds a server over a loaded model and the corpus it was fitted
// (or snapshot-verified) against, with default options.
func New(m *core.Model, c *dataset.Corpus) *Server {
	return NewServer(m, c, Config{})
}

// NewServer builds a server with explicit serving options.
func NewServer(m *core.Model, c *dataset.Corpus, cfg Config) *Server {
	s := &Server{
		corpus:   c,
		byHandle: make(map[string]dataset.UserID, len(c.Users)),
		cfg:      cfg,
		started:  time.Now(),
		metrics:  &metrics{},
		logf:     cfg.Logf,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	for _, u := range c.Users {
		s.byHandle[u.Handle] = u.ID
	}
	s.cur.Store(s.newState(m, 1))
	return s
}

func (s *Server) newState(m *core.Model, generation uint64) *state {
	size := s.cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	return &state{
		model:      m,
		cache:      newLRUCache(size), // nil when size < 1: caching off
		generation: generation,
		loadedAt:   time.Now(),
	}
}

// state returns the current snapshot generation. Handlers load it once
// per request so every readout within a request sees one model.
func (s *Server) state() *state { return s.cur.Load() }

// partial reports whether this server is a shard-placement backend.
func (s *Server) partial() bool { return s.cfg.Shards > 0 }

// owns reports whether this backend serves user u.
func (s *Server) owns(u dataset.UserID) bool {
	return !s.partial() || dataset.ShardOf(u, s.cfg.Shards) == s.cfg.Shard
}

// Generation returns the serving snapshot's generation stamp (1 for the
// model the server started with, +1 per successful reload).
func (s *Server) Generation() uint64 { return s.state().generation }

// Reload re-reads the configured snapshot path, verifies it against the
// held corpus (LoadSnapshot's world fingerprint check — a snapshot of a
// different world is refused and the serving model is untouched), and
// atomically swaps it in with a fresh readout cache. A full server hands
// core.ReloadSnapshot the model it is serving, whose read-only candidacy
// the new model shares when the load verified the same corpus
// fingerprint under the same candidacy config. Concurrent readers keep
// serving the old generation until the swap lands; they never block on
// the load.
func (s *Server) Reload() (uint64, error) {
	if s.cfg.Snapshot == "" {
		return 0, errors.New("serve: no snapshot path configured for reload")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	var (
		m   *core.Model
		err error
	)
	if s.partial() {
		m, err = core.LoadSnapshotShard(s.corpus, s.cfg.Snapshot, s.cfg.Shard)
	} else {
		m, err = core.ReloadSnapshot(s.corpus, s.cfg.Snapshot, s.state().model)
	}
	if err != nil {
		return 0, err
	}
	st := s.newState(m, s.state().generation+1)
	s.cur.Store(st)
	s.logf("serve: reloaded %s (generation %d)", s.cfg.Snapshot, st.generation)
	return st.generation, nil
}

// cityJSON is the wire form of one city reference.
type cityJSON struct {
	City gazetteer.CityID `json:"city"`
	Key  string           `json:"key"`
}

func (s *Server) city(id gazetteer.CityID) *cityJSON {
	if id == dataset.NoCity {
		return nil
	}
	return &cityJSON{City: id, Key: s.corpus.Gaz.City(id).Key()}
}

type profileEntryJSON struct {
	City   gazetteer.CityID `json:"city"`
	Key    string           `json:"key"`
	Weight float64          `json:"weight"`
}

type profileJSON struct {
	User    dataset.UserID     `json:"user"`
	Handle  string             `json:"handle"`
	Home    *cityJSON          `json:"home"`
	Profile []profileEntryJSON `json:"profile"`
}

type explanationJSON struct {
	X     *cityJSON `json:"x"`
	Y     *cityJSON `json:"y"`
	Noisy bool      `json:"noisy"`
}

type edgeJSON struct {
	Edge    int             `json:"edge"`
	From    dataset.UserID  `json:"from"`
	To      dataset.UserID  `json:"to"`
	MAP     explanationJSON `json:"map"`
	Sampled explanationJSON `json:"sampled"`
}

type venueProbJSON struct {
	City  gazetteer.CityID  `json:"city"`
	Venue gazetteer.VenueID `json:"venue"`
	Name  string            `json:"name"`
	Psi   float64           `json:"psi"`
}

type statsJSON struct {
	Status        string  `json:"status"`
	Variant       string  `json:"variant"`
	Users         int     `json:"users"`
	Locations     int     `json:"locations"`
	Venues        int     `json:"venues"`
	Edges         int     `json:"edges"`
	Tweets        int     `json:"tweets"`
	Iterations    int     `json:"iterations"`
	Alpha         float64 `json:"alpha"`
	Beta          float64 `json:"beta"`
	EdgeNoise     float64 `json:"edge_noise"`
	TweetNoise    float64 `json:"tweet_noise"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`

	Generation  uint64 `json:"generation"`
	Shard       string `json:"shard,omitempty"`
	CacheSize   int    `json:"cache_size"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`

	Endpoints map[string]endpointStatsJSON `json:"endpoints"`
}

type errorJSON struct {
	Error string `json:"error"`
}

type reloadJSON struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Snapshot   string `json:"snapshot"`
}

// Handler returns the API mux, wrapped whole in the counting middleware
// so unmatched paths (404s) land in the request and error counters too:
//
//	GET  /healthz                   liveness probe
//	GET  /stats                     corpus + model + per-endpoint counters
//	GET  /profile/{user}?top=K      top-K location profile (ID or handle)
//	POST /profiles                  bulk profile lookup {"users":[...],"top":K}
//	GET  /edge/{id}/explanation     MAP + sampled explanation of edge id
//	GET  /venue-prob?city=&venue=   collapsed venue probability ψ̂_l(v)
//	POST /reload                    hot snapshot swap (when configured)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", route(epHealthz, s.handleHealthz))
	mux.HandleFunc("GET /stats", route(epStats, s.handleStats))
	mux.HandleFunc("GET /profile/{user}", route(epProfile, s.handleProfile))
	mux.HandleFunc("POST /profiles", route(epProfiles, s.handleProfiles))
	mux.HandleFunc("GET /edge/{id}/explanation", route(epEdge, s.handleEdge))
	mux.HandleFunc("GET /venue-prob", route(epVenueProb, s.handleVenueProb))
	mux.HandleFunc("POST /reload", route(epReload, s.handleReload))
	return instrument(s.metrics, s.logf, mux)
}

// writeJSON encodes v as the response body. Encode failures (client
// gone, sink full) are invisible to the client — the status line already
// left — so they are logged and counted instead of dropped.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	writeJSON(w, status, v, s.metrics, s.logf)
}

func writeJSON(w http.ResponseWriter, status int, v any, m *metrics, logf func(string, ...any)) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		m.encodeFailures.Add(1)
		logf("serve: encoding response: %v", err)
	}
}

// writeBody writes pre-rendered JSON (a cached readout) plus the same
// trailing newline json.Encoder emits, keeping cached and uncached
// responses byte-identical.
func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err := w.Write(body)
	if err == nil {
		_, err = io.WriteString(w, "\n")
	}
	if err != nil {
		s.metrics.encodeFailures.Add(1)
		s.logf("serve: writing response: %v", err)
	}
}

// fail writes an error response. The error counter moves in the
// counting middleware (keyed off the status), so unmatched 404s and
// handler failures are counted by one mechanism.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	cs := s.corpus.Stats()
	alpha, beta := st.model.AlphaBeta()
	en, tn := st.model.NoiseStats()
	requests, errs := s.metrics.totals()
	out := statsJSON{
		Status:        "ok",
		Variant:       st.model.Config().Variant.String(),
		Users:         cs.Users,
		Locations:     cs.Locations,
		Venues:        cs.Venues,
		Edges:         cs.Edges,
		Tweets:        cs.Tweets,
		Iterations:    st.model.Iterations(),
		Alpha:         alpha,
		Beta:          beta,
		EdgeNoise:     en,
		TweetNoise:    tn,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      requests,
		Errors:        errs,
		Generation:    st.generation,
		CacheHits:     s.metrics.cacheHits.Load(),
		CacheMisses:   s.metrics.cacheMisses.Load(),
		Endpoints:     s.metrics.endpointStats(time.Since(s.started)),
	}
	if st.cache != nil {
		out.CacheSize = st.cache.len()
	}
	if s.partial() {
		out.Shard = fmt.Sprintf("%d/%d", s.cfg.Shard, s.cfg.Shards)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// resolveUser accepts either a handle or a dense numeric user ID. The
// handle map is consulted first: a user whose handle is all-numeric
// (e.g. "42") must stay resolvable by handle instead of being shadowed
// by the dense-ID fallback forever.
func resolveUser(byHandle map[string]dataset.UserID, numUsers int, raw string) (dataset.UserID, bool) {
	if id, ok := byHandle[raw]; ok {
		return id, true
	}
	if id, err := strconv.Atoi(raw); err == nil && id >= 0 && id < numUsers {
		return dataset.UserID(id), true
	}
	return 0, false
}

func (s *Server) resolveUser(raw string) (dataset.UserID, bool) {
	return resolveUser(s.byHandle, len(s.corpus.Users), raw)
}

// parseTop reads and clamps the top-K query parameter.
func parseTop(raw string) (int, error) {
	if raw == "" {
		return 3, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("bad top %q", raw)
	}
	if k > MaxTopK {
		k = MaxTopK
	}
	return k, nil
}

// renderProfile produces the marshaled profile readout for (u, top),
// serving from and feeding the state's LRU. The bytes are shared across
// cache hits and must not be mutated.
func (s *Server) renderProfile(st *state, u dataset.UserID, top int) ([]byte, error) {
	key := cacheKey{user: u, top: top}
	if st.cache != nil {
		if body, ok := st.cache.get(key); ok {
			s.metrics.cacheHits.Add(1)
			return body, nil
		}
		s.metrics.cacheMisses.Add(1)
	}
	prof := st.model.Profile(u)
	if len(prof) > top {
		prof = prof[:top]
	}
	entries := make([]profileEntryJSON, len(prof))
	for i, wl := range prof {
		entries[i] = profileEntryJSON{
			City:   wl.City,
			Key:    s.corpus.Gaz.City(wl.City).Key(),
			Weight: wl.Weight,
		}
	}
	body, err := json.Marshal(profileJSON{
		User:    u,
		Handle:  s.corpus.Users[u].Handle,
		Home:    s.city(st.model.Home(u)),
		Profile: entries,
	})
	if err != nil {
		return nil, err
	}
	if st.cache != nil {
		st.cache.put(key, body)
	}
	return body, nil
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	u, ok := s.resolveUser(r.PathValue("user"))
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown user %q", r.PathValue("user"))
		return
	}
	if !s.owns(u) {
		s.fail(w, http.StatusMisdirectedRequest, "user %d is owned by shard %d, this backend serves shard %d/%d",
			u, dataset.ShardOf(u, s.cfg.Shards), s.cfg.Shard, s.cfg.Shards)
		return
	}
	top, err := parseTop(r.URL.Query().Get("top"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := s.renderProfile(s.state(), u, top)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "render profile: %v", err)
		return
	}
	s.writeBody(w, http.StatusOK, body)
}

// bulkRequestJSON is the POST /profiles body: users as dense IDs
// (numbers) or handles (strings), plus an optional shared top-K cut.
type bulkRequestJSON struct {
	Users []json.RawMessage `json:"users"`
	Top   int               `json:"top"`
}

type bulkResponseJSON struct {
	Profiles []json.RawMessage `json:"profiles"`
}

// parseBulk decodes a bulk request body and normalizes the per-entry
// user references to strings resolveUser accepts.
func parseBulk(r *http.Request) (users []string, top int, err error) {
	var req bulkRequestJSON
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBulkBody))
	if err != nil {
		return nil, 0, fmt.Errorf("read body: %w", err)
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, 0, fmt.Errorf("bad bulk request: %w", err)
	}
	if len(req.Users) == 0 {
		return nil, 0, errors.New(`bad bulk request: "users" is empty`)
	}
	if len(req.Users) > MaxBulkUsers {
		return nil, 0, fmt.Errorf("bulk request has %d users (max %d)", len(req.Users), MaxBulkUsers)
	}
	top = req.Top
	if top == 0 {
		top = 3
	}
	if top < 1 {
		return nil, 0, fmt.Errorf("bad top %d", req.Top)
	}
	if top > MaxTopK {
		top = MaxTopK
	}
	users = make([]string, len(req.Users))
	for i, raw := range req.Users {
		var str string
		if err := json.Unmarshal(raw, &str); err == nil {
			users[i] = str
			continue
		}
		var num int64
		if err := json.Unmarshal(raw, &num); err == nil {
			users[i] = strconv.FormatInt(num, 10)
			continue
		}
		return nil, 0, fmt.Errorf("bad bulk user entry %s", raw)
	}
	return users, top, nil
}

// errorEntry renders a per-entry bulk error object.
func errorEntry(format string, args ...any) json.RawMessage {
	body, _ := json.Marshal(errorJSON{Error: fmt.Sprintf(format, args...)})
	return body
}

// handleProfiles answers bulk lookups: one rendered profile (or error
// object) per requested user, in request order. Per-entry misses do not
// fail the batch.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	users, top, err := parseBulk(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := s.state()
	out := bulkResponseJSON{Profiles: make([]json.RawMessage, len(users))}
	for i, raw := range users {
		u, ok := s.resolveUser(raw)
		switch {
		case !ok:
			out.Profiles[i] = errorEntry("unknown user %q", raw)
		case !s.owns(u):
			out.Profiles[i] = errorEntry("user %d not owned by shard %d/%d", u, s.cfg.Shard, s.cfg.Shards)
		default:
			body, err := s.renderProfile(st, u, top)
			if err != nil {
				out.Profiles[i] = errorEntry("render profile: %v", err)
				continue
			}
			out.Profiles[i] = body
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEdge(w http.ResponseWriter, r *http.Request) {
	if s.partial() {
		s.fail(w, http.StatusNotImplemented, "shard backend %d/%d serves profile lookups only", s.cfg.Shard, s.cfg.Shards)
		return
	}
	st := s.state()
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= len(s.corpus.Edges) {
		s.fail(w, http.StatusNotFound, "unknown edge %q", r.PathValue("id"))
		return
	}
	mapExp, ok := st.model.MAPExplainEdge(id)
	if !ok {
		s.fail(w, http.StatusUnprocessableEntity, "model variant %s does not consume edges", st.model.Config().Variant)
		return
	}
	sampled, _ := st.model.ExplainEdge(id)
	e := s.corpus.Edges[id]
	s.writeJSON(w, http.StatusOK, edgeJSON{
		Edge: id,
		From: e.From,
		To:   e.To,
		MAP: explanationJSON{
			X: s.city(mapExp.X), Y: s.city(mapExp.Y), Noisy: mapExp.Noisy,
		},
		Sampled: explanationJSON{
			X: s.city(sampled.X), Y: s.city(sampled.Y), Noisy: sampled.Noisy,
		},
	})
}

// resolveCity accepts a numeric city ID or a "name, st" key.
func (s *Server) resolveCity(raw string) (gazetteer.CityID, bool) {
	if id, err := strconv.Atoi(raw); err == nil {
		if id < 0 || id >= s.corpus.Gaz.Len() {
			return 0, false
		}
		return gazetteer.CityID(id), true
	}
	if name, state, ok := strings.Cut(raw, ","); ok {
		return s.corpus.Gaz.ResolveInState(strings.TrimSpace(name), strings.TrimSpace(state))
	}
	if ids := s.corpus.Gaz.Resolve(raw); len(ids) > 0 {
		return ids[0], true // most populous sense
	}
	return 0, false
}

func (s *Server) handleVenueProb(w http.ResponseWriter, r *http.Request) {
	if s.partial() {
		s.fail(w, http.StatusNotImplemented, "shard backend %d/%d serves profile lookups only", s.cfg.Shard, s.cfg.Shards)
		return
	}
	st := s.state()
	q := r.URL.Query()
	city, ok := s.resolveCity(q.Get("city"))
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown city %q", q.Get("city"))
		return
	}
	rawVenue := q.Get("venue")
	var venue gazetteer.VenueID
	if id, err := strconv.Atoi(rawVenue); err == nil && id >= 0 && id < s.corpus.Venues.Len() {
		venue = gazetteer.VenueID(id)
	} else if id, found := s.corpus.Venues.ID(rawVenue); found {
		venue = id
	} else {
		s.fail(w, http.StatusNotFound, "unknown venue %q", rawVenue)
		return
	}
	s.writeJSON(w, http.StatusOK, venueProbJSON{
		City:  city,
		Venue: venue,
		Name:  s.corpus.Venues.Venue(venue).Name,
		Psi:   st.model.VenueProbability(city, venue),
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Snapshot == "" {
		s.fail(w, http.StatusNotImplemented, "server was not configured with a snapshot path to reload")
		return
	}
	gen, err := s.Reload()
	if err != nil {
		s.fail(w, http.StatusConflict, "reload: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, reloadJSON{Status: "ok", Generation: gen, Snapshot: s.cfg.Snapshot})
}

// Do answers a single API request in process — no listener — against
// any serve handler (a Server's or a Router's), returning the response
// exactly as the HTTP server would serialize it.
func Do(h http.Handler, method, path string, body []byte) (status int, respBody []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// Oneshot answers a single GET path in process via Do. The CI smoke leg
// diffs this against a curl of the running daemon to prove the network
// layer adds nothing.
func Oneshot(h http.Handler, path string) (status int, body []byte, err error) {
	status, body = Do(h, http.MethodGet, path, nil)
	return status, body, nil
}

// Oneshot answers a single API path against this server's handler.
func (s *Server) Oneshot(path string) (status int, body []byte, err error) {
	return Oneshot(s.Handler(), path)
}

// ListenAndServe runs the API server on addr until ctx is cancelled, then
// shuts down gracefully (in-flight requests get shutdownGrace to finish).
// ready, when non-nil, receives the bound address once the listener is
// up — callers binding ":0" learn the real port — and is closed on every
// return path, so a ready-logging goroutine cannot leak when the listen
// itself fails.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready chan<- string) error {
	return ListenAndServe(ctx, addr, ready, s.Handler())
}

// ListenAndServe serves any handler with the tier's lifecycle contract:
// graceful drain on ctx cancellation, ready-channel close on all paths.
func ListenAndServe(ctx context.Context, addr string, ready chan<- string, h http.Handler) error {
	if ready != nil {
		defer close(ready)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// shutdownGrace bounds how long graceful shutdown waits for in-flight
// requests. Reads are microseconds; a server that cannot drain in five
// seconds is wedged, not busy.
const shutdownGrace = 5 * time.Second

package serve

// Tests for the serving tier v2 surface: hot snapshot swap, the
// rendered-profile LRU, bulk lookups, per-endpoint counters, and the
// serve-layer bugfix sweep (numeric handles, 404 counting, top capping,
// encode-error accounting).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

// freshServer builds an isolated server over the shared fixture model,
// so counter assertions are not polluted by other tests.
func freshServer(t *testing.T, cfg Config) (*dataset.Dataset, *core.Model, *Server) {
	t.Helper()
	d, m, _ := fixture(t)
	return d, m, NewServer(m, &d.Corpus, cfg)
}

// smallFit generates and fits a tiny private world (for tests that
// mutate the corpus or need their own snapshot files).
func smallFit(t *testing.T, seed int64, shards int) (*dataset.Dataset, *core.Model) {
	t.Helper()
	d, err := synth.Generate(synth.Config{Seed: seed, NumUsers: 60, NumLocations: 40})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Fit(&d.Corpus, core.Config{Seed: 3, Iterations: 2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

// TestNumericHandleResolvesByHandle: a user whose handle is all-numeric
// must be resolvable by that handle — the handle map is consulted
// before the dense-ID fallback (regression: digits used to be parsed
// first, permanently shadowing numeric handles).
func TestNumericHandleResolvesByHandle(t *testing.T) {
	d, m := smallFit(t, 11, 0)
	d.Corpus.Users[5].Handle = "7"
	s := New(m, &d.Corpus)
	code, body := get(t, s.Handler(), "/profile/7")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	resp := decode[profileJSON](t, body)
	if resp.User != 5 {
		t.Errorf("handle %q resolved to user %d, want 5 (the handle owner, not dense id 7)", "7", resp.User)
	}
	// Non-shadowed numeric lookups still hit the dense-ID path.
	code, body = get(t, s.Handler(), "/profile/9")
	if code != http.StatusOK || decode[profileJSON](t, body).User != 9 {
		t.Errorf("dense id 9: status %d body %s", code, body)
	}
	// The shadowed dense user stays reachable through its own handle.
	code, body = get(t, s.Handler(), "/profile/"+d.Corpus.Users[7].Handle)
	if code != http.StatusOK || decode[profileJSON](t, body).User != 7 {
		t.Errorf("user 7 by handle: status %d body %s", code, body)
	}
}

// TestUnmatchedRouteCounted: mux 404s must land in /stats requests and
// errors (regression: only matched routes were wrapped in the counter).
func TestUnmatchedRouteCounted(t *testing.T) {
	_, _, s := freshServer(t, Config{})
	h := s.Handler()
	if code, _ := get(t, h, "/no/such/route"); code != http.StatusNotFound {
		t.Fatalf("unmatched path: status %d", code)
	}
	code, body := get(t, h, "/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	st := decode[statsJSON](t, body)
	if st.Requests < 2 { // the 404 plus this /stats call
		t.Errorf("requests = %d, want >= 2", st.Requests)
	}
	if st.Errors < 1 {
		t.Errorf("errors = %d, want >= 1 (the 404)", st.Errors)
	}
	other, ok := st.Endpoints["other"]
	if !ok || other.Requests < 1 || other.Errors < 1 {
		t.Errorf(`endpoints["other"] = %+v, want the 404 counted there`, other)
	}
}

// TestTopCapped: ?top= beyond MaxTopK is clamped, not served verbatim —
// observable through the cache key: two absurd values share one entry.
func TestTopCapped(t *testing.T) {
	_, m, s := freshServer(t, Config{})
	h := s.Handler()
	code, body := get(t, h, "/profile/0?top=1000000000")
	if code != http.StatusOK {
		t.Fatalf("huge top: status %d: %s", code, body)
	}
	resp := decode[profileJSON](t, body)
	if len(resp.Profile) > MaxTopK {
		t.Fatalf("profile has %d entries, cap is %d", len(resp.Profile), MaxTopK)
	}
	want := m.Profile(0)
	if len(want) > MaxTopK {
		want = want[:MaxTopK]
	}
	if len(resp.Profile) != len(want) {
		t.Errorf("profile has %d entries, want %d", len(resp.Profile), len(want))
	}
	misses := s.metrics.cacheMisses.Load()
	if _, body2 := get(t, h, fmt.Sprintf("/profile/0?top=%d", MaxTopK+5)); !bytes.Equal(body, body2) {
		t.Errorf("clamped tops disagree: %q vs %q", body, body2)
	}
	if got := s.metrics.cacheMisses.Load(); got != misses {
		t.Errorf("second clamped request missed the cache (misses %d -> %d): tops not canonicalized", misses, got)
	}
}

// failAfterHeader is a ResponseWriter whose body writes always fail —
// the shape of a client that disconnected after the status line.
type failAfterHeader struct {
	header http.Header
}

func (f *failAfterHeader) Header() http.Header       { return f.header }
func (f *failAfterHeader) WriteHeader(int)           {}
func (f *failAfterHeader) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestEncodeErrorCounted: a failed response encode must be logged and
// counted (regression: writeJSON ignored Encode's error entirely).
func TestEncodeErrorCounted(t *testing.T) {
	var logged []string
	_, _, s := freshServer(t, Config{Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	h := s.Handler()
	h.ServeHTTP(&failAfterHeader{header: http.Header{}}, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if got := s.metrics.encodeFailures.Load(); got != 1 {
		t.Fatalf("encodeFailures = %d, want 1", got)
	}
	if len(logged) == 0 {
		t.Error("encode failure was not logged")
	}
	// The cached-body write path counts the same way.
	h.ServeHTTP(&failAfterHeader{header: http.Header{}}, httptest.NewRequest(http.MethodGet, "/profile/0", nil))
	if got := s.metrics.encodeFailures.Load(); got != 2 {
		t.Fatalf("encodeFailures = %d after profile write failure, want 2", got)
	}
	// And they surface in the /stats error total.
	_, body := get(t, h, "/stats")
	if st := decode[statsJSON](t, body); st.Errors < 2 {
		t.Errorf("stats errors = %d, want >= 2 (the encode failures)", st.Errors)
	}
}

// TestCacheByteIdenticalAndCounted: repeated profile reads serve the
// exact same bytes from the LRU, and hits/misses are visible in /stats.
func TestCacheByteIdenticalAndCounted(t *testing.T) {
	_, _, s := freshServer(t, Config{})
	h := s.Handler()
	_, first := get(t, h, "/profile/5?top=4")
	_, second := get(t, h, "/profile/5?top=4")
	if !bytes.Equal(first, second) {
		t.Fatalf("cached read differs: %q vs %q", first, second)
	}
	if s.metrics.cacheHits.Load() < 1 || s.metrics.cacheMisses.Load() < 1 {
		t.Errorf("cache counters hits=%d misses=%d, want both >= 1",
			s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load())
	}

	// Caching off: same bytes, no counters moving.
	_, _, off := freshServer(t, Config{CacheSize: -1})
	_, third := get(t, off.Handler(), "/profile/5?top=4")
	if !bytes.Equal(first, third) {
		t.Fatalf("uncached server differs: %q vs %q", first, third)
	}
	if off.metrics.cacheHits.Load() != 0 || off.metrics.cacheMisses.Load() != 0 {
		t.Errorf("disabled cache still counting: hits=%d misses=%d",
			off.metrics.cacheHits.Load(), off.metrics.cacheMisses.Load())
	}
}

// TestLRUCache unit-locks the eviction and recency contract.
func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	k := func(u int) cacheKey { return cacheKey{user: dataset.UserID(u), top: 3} }
	c.put(k(1), []byte("a"))
	c.put(k(2), []byte("b"))
	if _, ok := c.get(k(1)); !ok { // refresh 1; 2 is now coldest
		t.Fatal("entry 1 missing")
	}
	c.put(k(3), []byte("c")) // evicts 2
	if _, ok := c.get(k(2)); ok {
		t.Error("entry 2 should have been evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Error("entry 1 evicted despite being refreshed")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	c.put(k(1), []byte("a2")) // update in place
	if body, _ := c.get(k(1)); string(body) != "a2" {
		t.Errorf("update lost: %q", body)
	}
	if newLRUCache(0) != nil || newLRUCache(-5) != nil {
		t.Error("non-positive bounds must disable the cache")
	}
}

// TestBulkProfiles: POST /profiles answers per-entry, in request order,
// mixing dense ids, handles and misses, byte-identical to single GETs.
func TestBulkProfiles(t *testing.T) {
	d, _, s := freshServer(t, Config{})
	h := s.Handler()
	handle := d.Corpus.Users[3].Handle
	body := []byte(fmt.Sprintf(`{"users":[0,%q,999999,"nope",17],"top":4}`, handle))
	status, resp := Do(h, http.MethodPost, "/profiles", body)
	if status != http.StatusOK {
		t.Fatalf("bulk status %d: %s", status, resp)
	}
	var out bulkResponseJSON
	if err := json.Unmarshal(resp, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Profiles) != 5 {
		t.Fatalf("%d entries, want 5", len(out.Profiles))
	}
	for i, u := range map[int]dataset.UserID{0: 0, 1: 3, 4: 17} {
		_, single := get(t, h, fmt.Sprintf("/profile/%d?top=4", u))
		if string(out.Profiles[i]) != string(bytes.TrimSuffix(single, []byte("\n"))) {
			t.Errorf("entry %d: bulk %s != single %s", i, out.Profiles[i], single)
		}
	}
	for _, i := range []int{2, 3} {
		var e errorJSON
		if err := json.Unmarshal(out.Profiles[i], &e); err != nil || e.Error == "" {
			t.Errorf("entry %d: want an error object, got %s", i, out.Profiles[i])
		}
	}

	// Malformed and oversized batches are refused whole.
	if status, _ := Do(h, http.MethodPost, "/profiles", []byte(`{"users":[]}`)); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", status)
	}
	big, _ := json.Marshal(map[string]any{"users": make([]int, MaxBulkUsers+1)})
	if status, _ := Do(h, http.MethodPost, "/profiles", big); status != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d", status)
	}
}

// TestReloadLifecycle: POST /reload swaps generations from the
// configured path, refuses when unconfigured, and refuses a snapshot of
// a different world while continuing to serve the old generation.
func TestReloadLifecycle(t *testing.T) {
	d, m := smallFit(t, 13, 0)
	path := t.TempDir() + "/model.mlp"
	if err := m.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, &d.Corpus, Config{Snapshot: path})
	h := s.Handler()
	_, baseline := get(t, h, "/profile/4?top=5")

	status, body := Do(h, http.MethodPost, "/reload", nil)
	if status != http.StatusOK {
		t.Fatalf("reload status %d: %s", status, body)
	}
	var rl reloadJSON
	if err := json.Unmarshal(body, &rl); err != nil || rl.Generation != 2 {
		t.Fatalf("reload response %s (err %v), want generation 2", body, err)
	}
	if s.Generation() != 2 {
		t.Errorf("Generation() = %d, want 2", s.Generation())
	}
	if _, after := get(t, h, "/profile/4?top=5"); !bytes.Equal(baseline, after) {
		t.Errorf("unchanged snapshot changed readout: %q -> %q", baseline, after)
	}

	// A snapshot fitted against a different world must be refused and
	// the serving generation left untouched.
	other, om := smallFit(t, 14, 0)
	_ = other
	if err := om.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	status, body = Do(h, http.MethodPost, "/reload", nil)
	if status != http.StatusConflict {
		t.Fatalf("mismatched-world reload: status %d: %s", status, body)
	}
	if s.Generation() != 2 {
		t.Errorf("failed reload advanced generation to %d", s.Generation())
	}
	if _, after := get(t, h, "/profile/4?top=5"); !bytes.Equal(baseline, after) {
		t.Errorf("failed reload changed readout")
	}

	// Unconfigured servers refuse the endpoint outright.
	_, _, plain := freshServer(t, Config{})
	if status, _ := Do(plain.Handler(), http.MethodPost, "/reload", nil); status != http.StatusNotImplemented {
		t.Errorf("unconfigured reload: status %d, want 501", status)
	}
}

// TestConcurrentReloadWhileReading is the zero-downtime lock: readers
// hammer /profile through multiple hot swaps of an unchanged snapshot —
// under -race — and every response must succeed byte-identical to the
// pre-swap readout. Generation must advance past both reloads.
func TestConcurrentReloadWhileReading(t *testing.T) {
	d, m := smallFit(t, 15, 0)
	path := t.TempDir() + "/model.mlp"
	if err := m.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, &d.Corpus, Config{Snapshot: path})
	h := s.Handler()

	users := []dataset.UserID{0, 7, 19, 33, 59}
	baseline := make(map[dataset.UserID][]byte, len(users))
	for _, u := range users {
		code, body := get(t, h, fmt.Sprintf("/profile/%d?top=5", u))
		if code != http.StatusOK {
			t.Fatalf("user %d: status %d", u, code)
		}
		baseline[u] = body
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := users[(g+i)%len(users)]
				code, body := get(t, h, fmt.Sprintf("/profile/%d?top=5", u))
				if code != http.StatusOK {
					t.Errorf("user %d during reload: status %d", u, code)
					return
				}
				if !bytes.Equal(body, baseline[u]) {
					t.Errorf("user %d during reload: readout changed", u)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 2; i++ {
		time.Sleep(10 * time.Millisecond)
		if _, err := s.Reload(); err != nil {
			t.Errorf("reload %d: %v", i+1, err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s.Generation() != 3 {
		t.Errorf("generation = %d after two reloads, want 3", s.Generation())
	}
	// Post-swap readouts remain byte-identical too.
	for _, u := range users {
		if _, body := get(t, h, fmt.Sprintf("/profile/%d?top=5", u)); !bytes.Equal(body, baseline[u]) {
			t.Errorf("user %d after reloads: readout changed", u)
		}
	}
}

// TestReadyClosedOnListenFailure: ListenAndServe must close ready on
// every return path, so the daemon's ready-logging goroutine cannot
// leak when the listen itself fails (regression).
func TestReadyClosedOnListenFailure(t *testing.T) {
	_, _, s := freshServer(t, Config{})
	ready := make(chan string, 1)
	err := s.ListenAndServe(t.Context(), "256.256.256.256:0", ready)
	if err == nil {
		t.Fatal("listen on an invalid address succeeded")
	}
	select {
	case _, ok := <-ready:
		if ok {
			t.Error("ready received a value for a failed listen")
		}
	case <-time.After(time.Second):
		t.Error("ready not closed after listen failure")
	}
}

// TestBenchSmoke: the serve benchmark runs every cell error-free and
// reports sane counts at a tiny duration.
func TestBenchSmoke(t *testing.T) {
	d, _, s := freshServer(t, Config{})
	rep := Bench(s.Handler(), &d.Corpus, BenchConfig{Duration: 30 * time.Millisecond, Concurrency: 2})
	if len(rep.Endpoints) < 5 {
		t.Fatalf("only %d endpoint cells", len(rep.Endpoints))
	}
	for _, e := range rep.Endpoints {
		if e.Requests < 1 {
			t.Errorf("%s: no requests completed", e.Name)
		}
		if e.Errors != 0 {
			t.Errorf("%s: %d errored requests", e.Name, e.Errors)
		}
		if e.P50Ms < 0 || e.P99Ms < e.P50Ms {
			t.Errorf("%s: quantiles p50=%v p99=%v", e.Name, e.P50Ms, e.P99Ms)
		}
	}
}

// TestStatsV2Fields: the new /stats surface — generation, cache
// counters, per-endpoint latency stats — is present and coherent.
func TestStatsV2Fields(t *testing.T) {
	_, _, s := freshServer(t, Config{})
	h := s.Handler()
	get(t, h, "/profile/1?top=3")
	get(t, h, "/profile/1?top=3")
	_, body := get(t, h, "/stats")
	st := decode[statsJSON](t, body)
	if st.Generation != 1 {
		t.Errorf("generation = %d, want 1", st.Generation)
	}
	if st.CacheMisses < 1 || st.CacheHits < 1 || st.CacheSize < 1 {
		t.Errorf("cache stats %+v", st)
	}
	prof, ok := st.Endpoints["profile"]
	if !ok || prof.Requests < 2 || prof.P99Ms < prof.P50Ms || prof.P50Ms <= 0 {
		t.Errorf(`endpoints["profile"] = %+v`, prof)
	}
	if _, ok := st.Endpoints["stats"]; !ok {
		t.Error("stats endpoint not self-counted")
	}
}

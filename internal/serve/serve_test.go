package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"mlprofile/internal/core"
	"mlprofile/internal/dataset"
	"mlprofile/internal/synth"
)

var (
	testOnce   sync.Once
	testWorld  *dataset.Dataset
	testModel  *core.Model
	testServer *Server
)

// fixture fits one small model per test binary.
func fixture(t *testing.T) (*dataset.Dataset, *core.Model, *Server) {
	t.Helper()
	testOnce.Do(func() {
		d, err := synth.Generate(synth.Config{Seed: 5, NumUsers: 150, NumLocations: 70})
		if err != nil {
			panic(err)
		}
		m, err := core.Fit(&d.Corpus, core.Config{Seed: 2, Iterations: 4})
		if err != nil {
			panic(err)
		}
		testWorld, testModel, testServer = d, m, New(m, &d.Corpus)
	})
	return testWorld, testModel, testServer
}

func get(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func decode[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	_, _, s := fixture(t)
	code, body := get(t, s.Handler(), "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	resp := decode[map[string]any](t, body)
	if resp["status"] != "ok" {
		t.Errorf("healthz = %v", resp)
	}
}

func TestProfileMatchesModel(t *testing.T) {
	d, m, s := fixture(t)
	h := s.Handler()
	for _, u := range []dataset.UserID{0, 17, dataset.UserID(len(d.Corpus.Users) - 1)} {
		code, body := get(t, h, fmt.Sprintf("/profile/%d?top=5", u))
		if code != http.StatusOK {
			t.Fatalf("user %d: status %d: %s", u, code, body)
		}
		resp := decode[profileJSON](t, body)
		if resp.User != u || resp.Handle != d.Corpus.Users[u].Handle {
			t.Errorf("user %d: identity %+v", u, resp)
		}
		want := m.Profile(u)
		if len(want) > 5 {
			want = want[:5]
		}
		if len(resp.Profile) != len(want) {
			t.Fatalf("user %d: %d entries, want %d", u, len(resp.Profile), len(want))
		}
		for i, e := range resp.Profile {
			if e.City != want[i].City || math.Float64bits(e.Weight) != math.Float64bits(want[i].Weight) {
				t.Errorf("user %d entry %d: got (%d, %v) want (%d, %v)",
					u, i, e.City, e.Weight, want[i].City, want[i].Weight)
			}
			if e.Key != d.Corpus.Gaz.City(e.City).Key() {
				t.Errorf("user %d entry %d: key %q", u, i, e.Key)
			}
		}
		if home := m.Home(u); home == dataset.NoCity {
			if resp.Home != nil {
				t.Errorf("user %d: home should be null", u)
			}
		} else if resp.Home == nil || resp.Home.City != home {
			t.Errorf("user %d: home %+v want %d", u, resp.Home, home)
		}
	}
}

func TestProfileByHandle(t *testing.T) {
	d, _, s := fixture(t)
	u := d.Corpus.Users[3]
	code, body := get(t, s.Handler(), "/profile/"+u.Handle)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	resp := decode[profileJSON](t, body)
	if resp.User != u.ID {
		t.Errorf("handle %q resolved to user %d, want %d", u.Handle, resp.User, u.ID)
	}
}

func TestProfileErrors(t *testing.T) {
	_, _, s := fixture(t)
	h := s.Handler()
	if code, _ := get(t, h, "/profile/999999"); code != http.StatusNotFound {
		t.Errorf("out-of-range user: status %d", code)
	}
	if code, _ := get(t, h, "/profile/no-such-handle"); code != http.StatusNotFound {
		t.Errorf("unknown handle: status %d", code)
	}
	if code, _ := get(t, h, "/profile/0?top=zero"); code != http.StatusBadRequest {
		t.Errorf("bad top: status %d", code)
	}
}

func TestEdgeExplanationMatchesModel(t *testing.T) {
	d, m, s := fixture(t)
	h := s.Handler()
	for _, id := range []int{0, len(d.Corpus.Edges) / 2} {
		code, body := get(t, h, fmt.Sprintf("/edge/%d/explanation", id))
		if code != http.StatusOK {
			t.Fatalf("edge %d: status %d: %s", id, code, body)
		}
		resp := decode[edgeJSON](t, body)
		e := d.Corpus.Edges[id]
		if resp.From != e.From || resp.To != e.To {
			t.Errorf("edge %d: endpoints %+v", id, resp)
		}
		want, _ := m.MAPExplainEdge(id)
		if resp.MAP.X.City != want.X || resp.MAP.Y.City != want.Y || resp.MAP.Noisy != want.Noisy {
			t.Errorf("edge %d: MAP %+v want %+v", id, resp.MAP, want)
		}
		sampled, _ := m.ExplainEdge(id)
		if resp.Sampled.X.City != sampled.X || resp.Sampled.Y.City != sampled.Y || resp.Sampled.Noisy != sampled.Noisy {
			t.Errorf("edge %d: sampled %+v want %+v", id, resp.Sampled, sampled)
		}
	}
	if code, _ := get(t, h, "/edge/987654/explanation"); code != http.StatusNotFound {
		t.Errorf("unknown edge: status %d", code)
	}
}

func TestVenueProbMatchesModel(t *testing.T) {
	d, m, s := fixture(t)
	h := s.Handler()
	venue := d.Corpus.Venues.Venue(0)
	city := venue.Locations[0]
	code, body := get(t, h, fmt.Sprintf("/venue-prob?city=%d&venue=0", city))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	resp := decode[venueProbJSON](t, body)
	if want := m.VenueProbability(city, 0); math.Float64bits(resp.Psi) != math.Float64bits(want) {
		t.Errorf("psi = %v want %v", resp.Psi, want)
	}

	// Lookup by names instead of IDs resolves to the same cell.
	key := d.Corpus.Gaz.City(city).Key()
	code, body = get(t, h, "/venue-prob?city="+url.QueryEscape(key)+"&venue="+url.QueryEscape(venue.Name))
	if code != http.StatusOK {
		t.Fatalf("by-name status %d: %s", code, body)
	}
	byName := decode[venueProbJSON](t, body)
	if byName.City != city || byName.Venue != 0 || math.Float64bits(byName.Psi) != math.Float64bits(resp.Psi) {
		t.Errorf("by-name lookup %+v differs from by-id %+v", byName, resp)
	}

	if code, _ := get(t, h, "/venue-prob?city=nowhere&venue=0"); code != http.StatusNotFound {
		t.Errorf("unknown city: status %d", code)
	}
	if code, _ := get(t, h, fmt.Sprintf("/venue-prob?city=%d&venue=xyzzy", city)); code != http.StatusNotFound {
		t.Errorf("unknown venue: status %d", code)
	}
}

func TestStats(t *testing.T) {
	d, m, s := fixture(t)
	code, body := get(t, s.Handler(), "/stats")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	resp := decode[statsJSON](t, body)
	if resp.Users != len(d.Corpus.Users) || resp.Edges != len(d.Corpus.Edges) {
		t.Errorf("stats corpus shape %+v", resp)
	}
	alpha, _ := m.AlphaBeta()
	if resp.Alpha != alpha || resp.Iterations != m.Iterations() {
		t.Errorf("stats model shape %+v", resp)
	}
	if resp.Requests < 1 {
		t.Errorf("request counter %d", resp.Requests)
	}
}

// TestConcurrentReads hammers every endpoint from many goroutines; run
// under -race this proves serve-time reads share the model safely.
func TestConcurrentReads(t *testing.T) {
	d, _, s := fixture(t)
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				u := (g*53 + i*7) % len(d.Corpus.Users)
				if code, _ := get(t, h, fmt.Sprintf("/profile/%d?top=3", u)); code != http.StatusOK {
					t.Errorf("profile %d: status %d", u, code)
					return
				}
				e := (g*31 + i*11) % len(d.Corpus.Edges)
				if code, _ := get(t, h, fmt.Sprintf("/edge/%d/explanation", e)); code != http.StatusOK {
					t.Errorf("edge %d: status %d", e, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOneshotMatchesHTTP: the in-process readout and a real HTTP round
// trip must produce byte-identical bodies — the property the CI smoke leg
// asserts across processes.
func TestOneshotMatchesHTTP(t *testing.T) {
	_, _, s := fixture(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/profile/7?top=3", "/edge/0/explanation", "/venue-prob?city=0&venue=0"} {
		_, oneshot, err := s.Oneshot(path)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(oneshot) != string(wire) {
			t.Errorf("%s: oneshot %q != wire %q", path, oneshot, wire)
		}
	}
}

// TestGracefulShutdown: cancelling the context stops the listener and
// ListenAndServe returns nil.
func TestGracefulShutdown(t *testing.T) {
	_, _, s := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown returned %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestServeFromSnapshot is the end-to-end shape the daemon runs: snapshot
// to disk, load, serve — responses must match the in-process model that
// wrote the snapshot byte for byte.
func TestServeFromSnapshot(t *testing.T) {
	d, m, _ := fixture(t)
	path := t.TempDir() + "/model.mlp"
	if err := m.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadSnapshot(&d.Corpus, path)
	if err != nil {
		t.Fatal(err)
	}
	orig := New(m, &d.Corpus)
	restored := New(loaded, &d.Corpus)
	paths := []string{
		"/profile/0?top=3", "/profile/42?top=40",
		"/edge/3/explanation",
		fmt.Sprintf("/venue-prob?city=%d&venue=5", d.Corpus.Venues.Venue(5).Locations[0]),
		"/stats",
	}
	for _, p := range paths {
		if p == "/stats" {
			continue // uptime/request counters legitimately differ
		}
		_, a, _ := orig.Oneshot(p)
		_, b, _ := restored.Oneshot(p)
		if string(a) != string(b) {
			t.Errorf("%s: fitted %q != snapshot-loaded %q", p, a, b)
		}
	}
}

package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"mlprofile/internal/core"
	"mlprofile/internal/synth"
)

// TestReloadServesFreshLoadBodies: every reload of the served path —
// the same snapshot again, another variant, another fit of the world
// and another MaxCandidates, so that the reload both shares the serving
// model's candidacy and rebuilds it — must answer /profile, /profiles,
// /edge/{id}/explanation and /venue-prob with the bodies a server
// freshly started on that file answers.
func TestReloadServesFreshLoadBodies(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 16, NumUsers: 60, NumLocations: 40})
	if err != nil {
		t.Fatal(err)
	}
	c := &d.Corpus
	snapshot := func(cfg core.Config) []byte {
		t.Helper()
		m, err := core.Fit(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.EncodeSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	steps := []struct {
		name string
		cfg  core.Config
	}{
		{"MLP", core.Config{Seed: 3, Iterations: 2}},
		{"MLP again", core.Config{Seed: 3, Iterations: 2}},
		{"other seed", core.Config{Seed: 4, Iterations: 2}},
		{"MLP_U", core.Config{Seed: 3, Iterations: 2, Variant: core.FollowingOnly}},
		{"MLP_U again", core.Config{Seed: 3, Iterations: 2, Variant: core.FollowingOnly}},
		{"MLP_C", core.Config{Seed: 3, Iterations: 2, Variant: core.TweetingOnly}},
		{"MaxCandidates 8", core.Config{Seed: 3, Iterations: 2, MaxCandidates: 8}},
		{"MLP after MaxCandidates 8", core.Config{Seed: 3, Iterations: 2}},
	}
	venue := c.Venues.Venue(0)
	paths := []string{
		"/profile/4?top=5",
		"/profile/17",
		"/profile/" + c.Users[9].Handle + "?top=3",
		"/edge/0/explanation",
		fmt.Sprintf("/edge/%d/explanation", len(c.Edges)-1),
		fmt.Sprintf("/venue-prob?city=%d&venue=0", venue.Locations[0]),
		fmt.Sprintf("/venue-prob?city=%d&venue=%d", c.Users[4].Home, c.Tweets[0].Venue),
	}
	bulk := []byte(fmt.Sprintf(`{"users":[0,%q,17,999999],"top":4}`, c.Users[3].Handle))

	served := filepath.Join(t.TempDir(), "served.mlp")
	var s *Server
	for i, step := range steps {
		if err := os.WriteFile(served, snapshot(step.cfg), 0o644); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first, err := core.LoadSnapshot(c, served)
			if err != nil {
				t.Fatal(err)
			}
			s = NewServer(first, c, Config{Snapshot: served})
		} else if status, body := Do(s.Handler(), http.MethodPost, "/reload", nil); status != http.StatusOK {
			t.Fatalf("%s: reload status %d: %s", step.name, status, body)
		}
		fresh, err := core.LoadSnapshot(c, served)
		if err != nil {
			t.Fatal(err)
		}
		want := NewServer(fresh, c, Config{}).Handler()
		for _, path := range paths {
			gotStatus, got := Do(s.Handler(), http.MethodGet, path, nil)
			wantStatus, wantBody := Do(want, http.MethodGet, path, nil)
			if gotStatus != wantStatus || !bytes.Equal(got, wantBody) {
				t.Errorf("%s: GET %s = %d %q, a fresh load answers %d %q", step.name, path, gotStatus, got, wantStatus, wantBody)
			}
		}
		gotStatus, got := Do(s.Handler(), http.MethodPost, "/profiles", bulk)
		wantStatus, wantBody := Do(want, http.MethodPost, "/profiles", bulk)
		if gotStatus != wantStatus || !bytes.Equal(got, wantBody) {
			t.Errorf("%s: POST /profiles = %d %q, a fresh load answers %d %q", step.name, gotStatus, got, wantStatus, wantBody)
		}
	}
	if g := s.Generation(); g != uint64(len(steps)) {
		t.Errorf("generation %d after %d reloads, want %d", g, len(steps)-1, len(steps))
	}
}

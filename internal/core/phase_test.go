package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"mlprofile/internal/synth"
)

// TestPhaseSecondsKeys locks the phase names phase.go documents: which
// keys PhaseSeconds reports for the default Gibbs-EM fit, the sharded
// sweep, a fit without EM and the tweets-only variant, each value finite
// and non-negative. Key sets and signs are deterministic; the wall-clock
// values themselves are not asserted.
func TestPhaseSecondsKeys(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 19, NumUsers: 150, NumLocations: 80})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Seed: 1, Iterations: 2, GibbsEM: true, EMInterval: 2, EMPairSample: 5000}
	initAll := []string{"init/candidates", "init/disttable", "init/powerlaw", "init/state"}
	for _, c := range []struct {
		name string
		edit func(*Config)
		want []string
	}{
		{"default", func(*Config) {}, slices.Concat(initAll, []string{"edge", "em", "tweet"})},
		{"shards=2", func(c *Config) { c.Shards = 2 }, slices.Concat(initAll, []string{"boundary", "em", "fold", "shard"})},
		{"no-em", func(c *Config) { c.GibbsEM = false }, slices.Concat(initAll, []string{"edge", "tweet"})},
		{"tweeting-only", func(c *Config) { c.Variant = TweetingOnly }, []string{"init/candidates", "init/state", "tweet"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.edit(&cfg)
			m, err := Fit(&d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ps := m.PhaseSeconds()
			var got []string
			for k, v := range ps {
				got = append(got, k)
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("phase %s = %v s, want finite and >= 0", k, v)
				}
			}
			slices.Sort(got)
			want := slices.Sorted(slices.Values(c.want))
			if !slices.Equal(got, want) {
				t.Errorf("phases %s, want %s", strings.Join(got, " "), strings.Join(want, " "))
			}
		})
	}
}

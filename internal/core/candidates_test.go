package core

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"mlprofile/internal/dataset"
	"mlprofile/internal/gazetteer"
	"mlprofile/internal/geo"
	"mlprofile/internal/synth"
)

// buildCandidatesMap is the map-based candidacy builder that
// buildCandidates replaced, kept as its oracle: per-user Go maps sum the
// evidence in one pass over all edges and then all tweets, and a full
// sort with a city-id tie-break orders each user's map.
func buildCandidatesMap(c *dataset.Corpus, cfg Config, useF, useT bool) *candidateSet {
	n := len(c.Users)
	cs := &candidateSet{
		cand:     make([][]gazetteer.CityID, n),
		gamma:    make([][]float64, n),
		gammaSum: make([]float64, n),
	}

	if cfg.AllLocationCandidates {
		L := c.Gaz.Len()
		all := make([]gazetteer.CityID, L)
		for l := range all {
			all[l] = gazetteer.CityID(l)
		}
		for u := range c.Users {
			cs.cand[u] = all
			g := make([]float64, L)
			sum := 0.0
			for l := range g {
				g[l] = cfg.Tau
				sum += cfg.Tau
			}
			if home := c.Users[u].Home; home != dataset.NoCity {
				g[home] += cfg.GammaBoost
				sum += cfg.GammaBoost
			}
			cs.gamma[u] = g
			cs.gammaSum[u] = sum
		}
		return cs
	}

	evidence := make([]map[gazetteer.CityID]float64, n)
	bump := func(u dataset.UserID, l gazetteer.CityID, w float64) {
		if evidence[u] == nil {
			evidence[u] = make(map[gazetteer.CityID]float64, 8)
		}
		evidence[u][l] += w
	}
	if useF {
		for _, e := range c.Edges {
			if h := c.Users[e.To].Home; h != dataset.NoCity {
				bump(e.From, h, 1)
			}
			if h := c.Users[e.From].Home; h != dataset.NoCity {
				bump(e.To, h, 1)
			}
		}
	}
	if useT {
		for _, t := range c.Tweets {
			senses := c.Venues.Venue(t.Venue).Locations
			if len(senses) > cfg.MaxVenueSenses {
				senses = senses[:cfg.MaxVenueSenses]
			}
			for rank, l := range senses {
				bump(t.User, l, 1/float64(rank+1))
			}
		}
	}

	fallback := topLabeledHomesMap(c, 10)
	for u := range c.Users {
		home := c.Users[u].Home
		ev := evidence[u]
		if ev == nil {
			ev = make(map[gazetteer.CityID]float64, len(fallback)+1)
		}
		if home != dataset.NoCity {
			if _, ok := ev[home]; !ok {
				ev[home] = 0.5
			}
		}
		if len(ev) == 0 {
			for _, l := range fallback {
				ev[l] = 0.1
			}
		}
		list := make([]cityWeight, 0, len(ev))
		//mlp:allow maporder order-independent: list is fully sorted with a deterministic tie-break below
		for l, w := range ev {
			list = append(list, cityWeight{l, w})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].w != list[j].w {
				return list[i].w > list[j].w
			}
			return list[i].l < list[j].l
		})
		if len(list) > cfg.MaxCandidates {
			kept := list[:cfg.MaxCandidates]
			if home != dataset.NoCity {
				present := false
				for _, e := range kept {
					if e.l == home {
						present = true
						break
					}
				}
				if !present {
					kept[len(kept)-1] = cityWeight{home, 0.5}
				}
			}
			list = kept
		}
		cands := make([]gazetteer.CityID, len(list))
		g := make([]float64, len(list))
		sum := 0.0
		for i, e := range list {
			cands[i] = e.l
			g[i] = cfg.Tau
			if e.l == home {
				g[i] += cfg.GammaBoost
			}
			sum += g[i]
		}
		cs.cand[u] = cands
		cs.gamma[u] = g
		cs.gammaSum[u] = sum
	}
	return cs
}

// topLabeledHomesMap is topLabeledHomes as the map-based builder had it.
func topLabeledHomesMap(c *dataset.Corpus, k int) []gazetteer.CityID {
	counts := make(map[gazetteer.CityID]int)
	for _, u := range c.Users {
		if u.Home != dataset.NoCity {
			counts[u.Home]++
		}
	}
	type lc struct {
		l gazetteer.CityID
		n int
	}
	list := make([]lc, 0, len(counts))
	//mlp:allow maporder order-independent: list is fully sorted with a deterministic tie-break below
	for l, n := range counts {
		list = append(list, lc{l, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].l < list[j].l
	})
	if len(list) > k {
		list = list[:k]
	}
	out := make([]gazetteer.CityID, len(list))
	for i, e := range list {
		out[i] = e.l
	}
	if len(out) == 0 {
		out = append(out, mostPopulous(c.Gaz))
	}
	return out
}

// requireSameCandidates asserts got equals the oracle bit for bit: every
// candidate row, every prior γ and every γ sum, compared as float bits.
func requireSameCandidates(t *testing.T, got, want *candidateSet) {
	t.Helper()
	if len(got.cand) != len(want.cand) || len(got.gamma) != len(want.gamma) || len(got.gammaSum) != len(want.gammaSum) {
		t.Fatalf("sizes %d/%d/%d, want %d/%d/%d", len(got.cand), len(got.gamma), len(got.gammaSum), len(want.cand), len(want.gamma), len(want.gammaSum))
	}
	for u := range want.cand {
		if !slices.Equal(got.cand[u], want.cand[u]) {
			t.Fatalf("user %d: candidates %v, want %v", u, got.cand[u], want.cand[u])
		}
		if len(got.gamma[u]) != len(want.gamma[u]) {
			t.Fatalf("user %d: %d priors, want %d", u, len(got.gamma[u]), len(want.gamma[u]))
		}
		for i, g := range want.gamma[u] {
			if math.Float64bits(got.gamma[u][i]) != math.Float64bits(g) {
				t.Fatalf("user %d: γ[%d] = %v, want %v", u, i, got.gamma[u][i], g)
			}
		}
		if math.Float64bits(got.gammaSum[u]) != math.Float64bits(want.gammaSum[u]) {
			t.Fatalf("user %d: γ sum %v, want %v", u, got.gammaSum[u], want.gammaSum[u])
		}
	}
}

// withSilentUsers returns a copy of c with extra users that have no
// relationships: one per home in homes (dataset.NoCity for unlabeled).
func withSilentUsers(c *dataset.Corpus, homes ...gazetteer.CityID) *dataset.Corpus {
	users := slices.Clone(c.Users)
	for _, h := range homes {
		users = append(users, dataset.User{ID: dataset.UserID(len(users)), Home: h})
	}
	return c.WithUsers(users)
}

// TestBuildCandidatesMatchesMapOracle: the CSR-grouped, dense-accumulator
// builder must reproduce the map-based builder bit for bit on every path
// of candidacy: all three variants, one venue sense, a MaxCandidates cap
// that re-inserts observed homes at the last slot, relationship-less
// users (the fallback list), an all-unlabeled corpus (the most populous
// city) and the AllLocationCandidates ablation.
func TestBuildCandidatesMatchesMapOracle(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	golden := &d.Corpus
	all := make([]dataset.UserID, len(golden.Users))
	for u := range all {
		all[u] = dataset.UserID(u)
	}
	unlabeled := withSilentUsers(golden.WithUsers(golden.HideLabels(all)), dataset.NoCity, dataset.NoCity)
	if err := unlabeled.Validate(); err != nil {
		t.Fatal(err)
	}
	silent := withSilentUsers(golden, dataset.NoCity, 3, dataset.NoCity)
	if err := silent.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := topLabeledHomes(unlabeled, 10); !slices.Equal(got, []gazetteer.CityID{mostPopulous(golden.Gaz)}) {
		t.Fatalf("unlabeled fallback %v, want the most populous city", got)
	}

	// A cap of 4 must evict some observed homes from the sorted evidence,
	// so the re-insertion at the last slot is exercised.
	const smallCap = 4
	full := buildCandidatesMap(golden, Config{MaxCandidates: 1000}.withDefaults(), true, true)
	reinserted := 0
	for u, row := range full.cand {
		if home := golden.Users[u].Home; home != dataset.NoCity && slices.Index(row, home) >= smallCap {
			reinserted++
		}
	}
	if reinserted == 0 {
		t.Fatal("no observed home falls outside the top 4: the re-insertion path is not exercised")
	}

	for _, tc := range []struct {
		name string
		c    *dataset.Corpus
		cfg  Config
		v    Variant
	}{
		{"golden", golden, Config{}, Full},
		{"MLP_U", golden, Config{}, FollowingOnly},
		{"MLP_C", golden, Config{}, TweetingOnly},
		{"one-sense", golden, Config{MaxVenueSenses: 1}, Full},
		{"home-reinserted", golden, Config{MaxCandidates: smallCap}, Full},
		{"silent-users", silent, Config{}, Full},
		{"silent-users/MLP_U", silent, Config{}, FollowingOnly},
		{"all-unlabeled", unlabeled, Config{}, Full},
		{"all-unlabeled/MLP_U", unlabeled, Config{}, FollowingOnly},
		{"all-locations", golden, Config{AllLocationCandidates: true}, Full},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.withDefaults()
			useF, useT := tc.v != TweetingOnly, tc.v != FollowingOnly
			got := buildCandidates(tc.c, cfg, useF, useT)
			requireSameCandidates(t, got, buildCandidatesMap(tc.c, cfg, useF, useT))
			if cfg.AllLocationCandidates {
				return
			}
			for u, row := range got.cand {
				if cap(row) != len(row) || cap(got.gamma[u]) != len(got.gamma[u]) {
					t.Fatalf("user %d: row capacity %d/%d exceeds its length %d", u, cap(row), cap(got.gamma[u]), len(row))
				}
			}
		})
	}
}

// TestValidateBoundsMaxCandidates: uint16 assignment indexes address
// 65,536 candidates, so validate accepts MaxCandidates up to that and
// refuses one more with an error naming the limit.
func TestValidateBoundsMaxCandidates(t *testing.T) {
	if err := (Config{MaxCandidates: candidateIndexLimit}).withDefaults().validate(); err != nil {
		t.Errorf("MaxCandidates=%d refused: %v", candidateIndexLimit, err)
	}
	err := (Config{MaxCandidates: candidateIndexLimit + 1}).withDefaults().validate()
	if err == nil || !strings.Contains(err.Error(), "MaxCandidates") || !strings.Contains(err.Error(), "65536") {
		t.Errorf("MaxCandidates=%d: error %v, want one naming the field and the limit 65536", candidateIndexLimit+1, err)
	}
}

// TestAllLocationCandidatesRefusedAboveIndexLimit: on a 65,537-city
// gazetteer the ablation would give every user one candidate more than
// uint16 indexes address, wrapping an index and corrupting ϕ. Fit and
// both snapshot decoders refuse it with an error naming the limit,
// before any candidate set is built.
func TestAllLocationCandidatesRefusedAboveIndexLimit(t *testing.T) {
	cities := make([]gazetteer.City, candidateIndexLimit+1)
	for i := range cities {
		cities[i] = gazetteer.City{
			Name:       fmt.Sprintf("town %d", i),
			State:      "TX",
			Point:      geo.Point{Lat: 25 + float64(i%256)/16, Lon: -120 + float64(i/256)/8},
			Population: i + 1,
		}
	}
	gaz, err := gazetteer.New(cities)
	if err != nil {
		t.Fatal(err)
	}
	c := &dataset.Corpus{
		Gaz:    gaz,
		Venues: gazetteer.BuildVenueVocab(gaz),
		Users:  []dataset.User{{ID: 0, Home: 7}, {ID: 1, Home: dataset.NoCity}},
		Edges:  []dataset.FollowEdge{{From: 1, To: 0}},
		Tweets: []dataset.TweetRel{{User: 1, Venue: 3}},
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "AllLocationCandidates") || !strings.Contains(err.Error(), "65536") {
			t.Errorf("%s: error %v, want one naming AllLocationCandidates and the limit 65536", what, err)
		}
	}
	_, err = Fit(c, Config{Seed: 1, Iterations: 1, AllLocationCandidates: true})
	refused("Fit", err)

	// Fit refuses this world, so the snapshots are encoded from a model
	// assembled by hand: the decoders must refuse its config before they
	// rebuild candidacy or read any row.
	m := &Model{
		cfg:    Config{Seed: 1, Iterations: 1, Shards: 2, AllLocationCandidates: true}.withDefaults(),
		corpus: c,
		useF:   true,
		useT:   true,
		phi:    [][]float64{{}, {}},
		phiSum: []float64{0, 0},
		mu:     []bool{true},
		ex:     []uint16{0},
		ey:     []uint16{0},
		nu:     []bool{true},
		tz:     []uint16{0},
		ps:     newPsiStore(c.Venues.Len()),
	}
	var buf bytes.Buffer
	if err := m.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = DecodeSnapshot(c, &buf)
	refused("DecodeSnapshot", err)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := m.SaveShardedSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	_, err = LoadSnapshot(c, dir)
	refused("LoadSnapshot of the directory", err)
	_, err = LoadSnapshotShard(c, dir, 1)
	refused("LoadSnapshotShard", err)
}

// BenchmarkBuildCandidates times candidacy (Sec. 4.3) on the fit-large
// world of bench/ (5,000 users, 1,000 cities, seed 17, fold 0's labels
// hidden) for each variant's evidence.
func BenchmarkBuildCandidates(b *testing.B) {
	d, err := synth.Generate(synth.Config{Seed: 17, NumUsers: 5000, NumLocations: 1000})
	if err != nil {
		b.Fatal(err)
	}
	c := d.Corpus.WithUsers(d.Corpus.HideLabels(dataset.KFold(len(d.Corpus.Users), 5, 99)[0]))
	cfg := Config{}.withDefaults()
	for _, v := range []Variant{Full, FollowingOnly, TweetingOnly} {
		b.Run(v.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				buildCandidates(c, cfg, v != TweetingOnly, v != FollowingOnly)
			}
		})
	}
}

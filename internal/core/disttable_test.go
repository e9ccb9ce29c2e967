package core

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"mlprofile/internal/gazetteer"
	"mlprofile/internal/geo"
	"mlprofile/internal/synth"
)

// milesApartGazetteer builds a gazetteer whose city i+1 sits the given
// number of miles due north of city 0, so pair distances are controlled
// to sub-fp precision.
func milesApartGazetteer(t *testing.T, miles []float64) *gazetteer.Gazetteer {
	t.Helper()
	const lat0, lon0 = 40.0, -100.0
	cities := []gazetteer.City{{Name: "anchor", State: "NE", Point: geo.Point{Lat: lat0, Lon: lon0}, Population: 1000}}
	for i, d := range miles {
		dLat := d / earthRadiusMiles * 180 / math.Pi
		cities = append(cities, gazetteer.City{
			Name:       fmt.Sprintf("north-%d", i),
			State:      "NE",
			Point:      geo.Point{Lat: lat0 + dLat, Lon: lon0},
			Population: 100,
		})
	}
	g, err := gazetteer.New(cities)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// allCities is a candidate set spanning the whole gazetteer, so a table
// built over it covers every city pair.
func allCities(L int) [][]gazetteer.CityID {
	all := make([]gazetteer.CityID, L)
	for l := range all {
		all[l] = gazetteer.CityID(l)
	}
	return [][]gazetteer.CityID{all}
}

// TestDistTableSubMileClamp locks the satellite fix: the exact path's
// 1-mile clamp (d < 1 → log 0 → d^α = 1) and the table's bin 0 must
// agree exactly for sub-mile pairs, with boundary values straddling one
// mile staying within quantization tolerance.
func TestDistTableSubMileClamp(t *testing.T) {
	dists := []float64{0.3, 0.999, 1.0, 1.001, 2.5}
	g := milesApartGazetteer(t, dists)
	dc := newDistCalc(g)
	dt := newDistTable(dc, g.Len(), allCities(g.Len()), maxDenseUniverse)
	const alpha = -0.55
	dt.setAlpha(alpha)

	anchor := gazetteer.CityID(0)
	for i, d := range dists {
		b := gazetteer.CityID(i + 1)
		exact := dc.powDist(anchor, b, alpha)
		table := dt.pow(anchor, b)
		t.Logf("d=%.3f mi: exact=%.12f table=%.12f", d, exact, table)
		if d <= 1.0 {
			// The clamp region: both paths must produce exactly 1. (At
			// d=1.0 the haversine reproduces the distance to ~1 ulp; the
			// clamped log collapses either side of it to 0.)
			if exact != 1.0 {
				t.Errorf("d=%.3f: exact path %v, want exactly 1 (clamp)", d, exact)
			}
			if table != 1.0 {
				t.Errorf("d=%.3f: table bin-0 %v, want exactly 1 (clamp agreement)", d, table)
			}
		} else {
			if table >= 1.0 {
				t.Errorf("d=%.3f: table %v did not leave the clamp region", d, table)
			}
			if rel := math.Abs(table-exact) / exact; rel > 1e-6 {
				t.Errorf("d=%.3f: table %v vs exact %v, rel err %.3g above quantization tolerance", d, table, exact, rel)
			}
		}
	}

	// Symmetry and the zero diagonal.
	if dt.pow(1, 2) != dt.pow(2, 1) {
		t.Error("universe matrix not symmetric")
	}
	if dt.pow(anchor, anchor) != 1.0 {
		t.Error("d=0 diagonal must sit in the clamp bin")
	}
}

// TestDistTableMatchesExactWithinTolerance sweeps every city pair of a
// generated gazetteer and bounds the table's relative error by the
// design bound |α|·logBinWidth/2 (plus fp slack).
func TestDistTableMatchesExactWithinTolerance(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 50, NumLocations: 180})
	if err != nil {
		t.Fatal(err)
	}
	dc := newDistCalc(d.Corpus.Gaz)
	L := d.Corpus.Gaz.Len()
	dt := newDistTable(dc, L, allCities(L), maxDenseUniverse)
	const alpha = -0.55
	dt.setAlpha(alpha)
	bound := math.Abs(alpha)*logBinWidth/2 + 1e-12
	worst := 0.0
	for a := 0; a < L; a++ {
		for b := 0; b < L; b++ {
			exact := dc.powDist(gazetteer.CityID(a), gazetteer.CityID(b), alpha)
			table := dt.pow(gazetteer.CityID(a), gazetteer.CityID(b))
			if rel := math.Abs(table-exact) / exact; rel > worst {
				worst = rel
			}
		}
	}
	t.Logf("worst relative error %.3g (bound %.3g)", worst, bound)
	if worst > bound {
		t.Errorf("worst relative error %.3g exceeds quantization bound %.3g", worst, bound)
	}
}

// TestDistTableFallbackAgreesWithDense is the unit-level identity of
// the universe matrices: built over a generated world's candidate sets,
// every matrix entry equals the single lookups pow(a, b) and pow(b, a)
// of a table over the same universe without matrices (budget 0) — same
// quantized log, same exp — at two α-epochs. The µ-step's matrix load
// and the post-fit single lookups therefore cannot diverge however they
// mix. Compact ids follow first-seen order over the candidate sets,
// cities outside the universe fall through to single lookups, and the
// fallback exposes no rows.
func TestDistTableFallbackAgreesWithDense(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 120, NumLocations: 400})
	if err != nil {
		t.Fatal(err)
	}
	c := &d.Corpus
	L := c.Gaz.Len()
	cand := buildCandidates(c, Config{}.withDefaults(), true, true).cand
	dc := newDistCalc(c.Gaz)
	dense := newDistTable(dc, L, cand, maxDenseUniverse)
	fallback := newDistTable(dc, L, cand, 0)
	if !dense.dense || dense.qlog == nil || fallback.dense || fallback.qlog != nil {
		t.Fatalf("dense=%v (qlog %v), fallback=%v (qlog %v): want matrices only under the budget",
			dense.dense, dense.qlog != nil, fallback.dense, fallback.qlog != nil)
	}
	if dense.U != fallback.U || dense.U >= L {
		t.Fatalf("universe %d / %d of L=%d: want one universe smaller than the gazetteer", dense.U, fallback.U, L)
	}

	// First-seen order: user by user, candidate by candidate.
	var cities []gazetteer.CityID
	seen := make(map[gazetteer.CityID]bool)
	for _, cs := range cand {
		for _, l := range cs {
			if !seen[l] {
				seen[l] = true
				cities = append(cities, l)
			}
		}
	}
	if len(cities) != dense.U {
		t.Fatalf("universe size %d, want %d distinct candidate cities", dense.U, len(cities))
	}
	for id, l := range cities {
		if got := dense.uid[l]; got != int32(id) {
			t.Fatalf("city %d has compact id %d, want %d (first-seen order)", l, got, id)
		}
	}
	outside := gazetteer.CityID(-1)
	for l := 0; l < L; l++ {
		if !seen[gazetteer.CityID(l)] {
			if dense.uid[l] != -1 {
				t.Fatalf("city %d outside the universe has compact id %d, want -1", l, dense.uid[l])
			}
			outside = gazetteer.CityID(l)
		}
	}

	for _, alpha := range []float64{-0.55, -1.3} {
		dense.setAlpha(alpha)
		fallback.setAlpha(alpha)
		for ia, a := range cities {
			for ib, b := range cities {
				got := dense.pm[ia*dense.U+ib]
				if ab, ba := fallback.pow(a, b), fallback.pow(b, a); got != ab || got != ba {
					t.Fatalf("alpha=%v: matrix (%d,%d) = %v, single lookups pow(a,b) = %v, pow(b,a) = %v", alpha, a, b, got, ab, ba)
				}
			}
		}
		if outside >= 0 {
			a := cities[0]
			if got, want := dense.pow(a, outside), fallback.pow(a, outside); got != want {
				t.Fatalf("alpha=%v: pow to a city outside the universe %v, single lookup %v", alpha, got, want)
			}
		}
	}
	if fallback.row(cities[0]) != nil {
		t.Error("fallback mode should expose no dense rows")
	}
}

// TestUniverseBudgetFallbackGoldens runs the golden world with the
// universe budget forced to 0, so every kernel takes its single-lookup
// branch: the per-variable kernel (edgeCum) and the blocked kernel
// (edgeCacheFor, updateEdgeBlockedTable). Each fit must reproduce the
// dense fit's pinned fingerprint.
func TestUniverseBudgetFallbackGoldens(t *testing.T) {
	d, err := synth.Generate(*goldenWorld(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name        string
		edit        func(*Config)
		fingerprint uint64
	}{
		{"per-variable", func(*Config) {}, goldenFingerprint},
		{"blocked", func(c *Config) { c.BlockedSampler = true }, goldenBlocked[1].fingerprint},
	} {
		t.Run(g.name, func(t *testing.T) {
			cfg := goldenCfg()
			cfg.DistTable = DistTableOn
			g.edit(&cfg)
			if cfg.BlockedSampler && testing.Short() {
				t.Skip("single-lookup blocked kernel pays nI·nJ pow calls per edge per α-epoch; run without -short")
			}
			cfg.OnIteration = func(_ int, m *Model) {
				if m.dt.pm != nil {
					t.Fatal("universe matrices built under a zero budget")
				}
			}
			m, err := fit(&d.Corpus, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if active, u, dense := m.DistTableStatus(); !active || dense || u == 0 {
				t.Errorf("DistTableStatus active=%v U=%d dense=%v, want single lookups over a non-empty universe", active, u, dense)
			}
			if got := fitFingerprint(m); got != g.fingerprint {
				t.Errorf("%s single-lookup fingerprint %#x differs from the dense golden %#x", g.name, got, g.fingerprint)
			}
		})
	}
}

// TestUniverseMatricesLiveOnlyDuringFit locks the matrices' lifetime:
// built for the sweeps, released when Fit returns (the status still
// reports the dense fit), and never built by either snapshot loader.
func TestUniverseMatricesLiveOnlyDuringFit(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 19, NumUsers: 150, NumLocations: 80})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Seed: 1, Iterations: 2, Shards: shards}
			cfg.OnIteration = func(_ int, m *Model) {
				if m.dt.pm == nil || m.dt.qlog == nil || m.dt.uid == nil {
					t.Fatal("sweeps ran without the universe matrices")
				}
			}
			m, err := Fit(&d.Corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.dt.pm != nil || m.dt.qlog != nil || m.dt.uid != nil {
				t.Error("Fit left universe matrices behind")
			}
			active, u, dense := m.DistTableStatus()
			if !active || !dense || u == 0 {
				t.Errorf("fitted status active=%v U=%d dense=%v, want the dense fit reported after release", active, u, dense)
			}

			path := filepath.Join(t.TempDir(), "model")
			save := m.SaveSnapshot
			if shards > 1 {
				save = m.SaveShardedSnapshot
			}
			if err := save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshot(&d.Corpus, path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.dt.pm != nil || loaded.dt.qlog != nil || loaded.dt.uid != nil {
				t.Error("LoadSnapshot built universe matrices")
			}
			if la, lu, ld := loaded.DistTableStatus(); !la || lu != u || ld {
				t.Errorf("loaded status active=%v U=%d dense=%v, want single lookups over U=%d", la, lu, ld, u)
			}
		})
	}
}

// TestFinalEMRefitSkipsMatrixFill: a fit that ends on a Gibbs-EM sweep
// releases the universe matrices before that sweep's refit, whose
// α-epoch no sweep reads. Its last OnIteration sees no matrices while
// every earlier call does, and the refit still starts the new α-epoch
// that single lookups serve.
func TestFinalEMRefitSkipsMatrixFill(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 19, NumUsers: 150, NumLocations: 80})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 6
	var lastEpoch uint32
	var lastAlpha float64
	cfg := Config{Seed: 1, Iterations: iters, GibbsEM: true, EMInterval: 3}
	cfg.OnIteration = func(it int, m *Model) {
		live := m.dt.pm != nil && m.dt.qlog != nil && m.dt.uid != nil
		if want := it < iters; live != want {
			t.Errorf("sweep %d: universe matrices live=%v, want %v", it, live, want)
		}
		if it == iters-1 {
			lastEpoch, lastAlpha = m.dt.epoch, m.alpha
		}
	}
	m, err := Fit(&d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.dt.epoch != lastEpoch+1 || m.alpha == lastAlpha || m.dt.alpha != m.alpha {
		t.Errorf("final refit: epoch %d → %d, α %v → %v (table α %v), want a new epoch at the refitted α",
			lastEpoch, m.dt.epoch, lastAlpha, m.alpha, m.dt.alpha)
	}
	if _, _, dense := m.DistTableStatus(); !dense {
		t.Error("status stopped reporting the dense fit")
	}
}

// TestDistTableAlphaEpochInvalidation: setAlpha must advance the epoch,
// rewrite the pow matrix, and make per-edge caches rebuild their static
// sums. It runs on the last iteration of a fit, while the matrices are
// still live.
func TestDistTableAlphaEpochInvalidation(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 13, NumUsers: 120, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 2
	checked := false
	check := func(m *Model) {
		if m.dt == nil || m.dt.pm == nil || m.etab == nil {
			t.Fatal("blocked fit with default config should build the matrices and edge caches")
		}
		s := 0
		e := m.corpus.Edges[s]
		candI := m.cands.cand[e.From]
		candJ := m.cands.cand[e.To]
		gammaJ := m.cands.gamma[e.To]
		ec := m.edgeCacheFor(s, candI, candJ, gammaJ)
		if ec.epoch != m.dt.epoch {
			t.Fatal("edge cache not stamped with current epoch")
		}
		gRow0 := ec.gRow[0]

		epoch := m.dt.epoch
		alpha, _ := m.AlphaBeta()
		m.dt.setAlpha(alpha * 2)
		if m.dt.epoch != epoch+1 {
			t.Fatalf("epoch %d after setAlpha, want %d", m.dt.epoch, epoch+1)
		}
		ec2 := m.edgeCacheFor(s, candI, candJ, gammaJ)
		if ec2.epoch != m.dt.epoch {
			t.Fatal("edge cache not rebuilt for new epoch")
		}
		if ec2.gRow[0] == gRow0 {
			t.Errorf("static row sum unchanged (%v) across an α-epoch that doubled α", gRow0)
		}

		// The memoized pow must match a fresh exp at the new α.
		a, b := candI[0], candJ[0]
		want := math.Exp(m.dt.alpha * quantLog(m.dc.logMiles(a, b)))
		if got := m.dt.pow(a, b); got != want {
			t.Errorf("pow after refit %v, want %v", got, want)
		}
		checked = true
	}
	cfg := Config{Seed: 3, Iterations: iters, BlockedSampler: true}
	cfg.OnIteration = func(k int, m *Model) {
		if k == iters {
			check(m)
		}
	}
	if _, err := Fit(&d.Corpus, cfg); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("OnIteration never reached the last iteration")
	}
}

// BenchmarkEdgeCacheRebuild measures one α-epoch rebuild of a per-edge
// static row-sum cache (the amortized cost behind Gibbs-EM refits),
// reading the universe matrix as a fit does.
func BenchmarkEdgeCacheRebuild(b *testing.B) {
	d, err := synth.Generate(synth.Config{Seed: 17, NumUsers: 300, NumLocations: 100})
	if err != nil {
		b.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 1, BlockedSampler: true})
	if err != nil {
		b.Fatal(err)
	}
	m.dt = newDistTable(m.dc, d.Corpus.Gaz.Len(), m.cands.cand, maxDenseUniverse)
	m.dt.setAlpha(m.alpha)
	e := m.corpus.Edges[0]
	candI, candJ := m.cands.cand[e.From], m.cands.cand[e.To]
	gammaJ := m.cands.gamma[e.To]
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.etab[0].epoch = m.dt.epoch - 1 // force rebuild
		m.edgeCacheFor(0, candI, candJ, gammaJ)
	}
}

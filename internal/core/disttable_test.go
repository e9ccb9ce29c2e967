package core

import (
	"fmt"
	"math"
	"testing"

	"mlprofile/internal/dataset"
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

// TestDistTableSubMileClamp locks the satellite fix: the exact path's
// 1-mile clamp (d < 1 → log 0 → d^α = 1) and the table's bin 0 must
// agree exactly for sub-mile pairs, with boundary values straddling one
// mile staying within quantization tolerance.
func TestDistTableSubMileClamp(t *testing.T) {
	dists := []float64{0.3, 0.999, 1.0, 1.001, 2.5}
	g := milesApartGazetteer(t, dists)
	dc := newDistCalc(g)
	dt := newDistTable(dc, g.Len())
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
		t.Error("pair bins not symmetric")
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
	dt := newDistTable(dc, L)
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

// TestDistTableFallbackAgreesWithDense: above maxDensePairCities single
// lookups quantize per lookup; that path must produce bit-identical
// values to the dense matrix (same bins, same reps).
func TestDistTableFallbackAgreesWithDense(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 11, NumUsers: 50, NumLocations: 120})
	if err != nil {
		t.Fatal(err)
	}
	dc := newDistCalc(d.Corpus.Gaz)
	L := d.Corpus.Gaz.Len()
	dense := newDistTable(dc, L)
	fallback := &distTable{dc: dc, L: L} // no dense matrix, as above maxDensePairCities
	dense.setAlpha(-0.7)
	fallback.setAlpha(-0.7)
	for a := 0; a < L; a++ {
		for b := 0; b < L; b++ {
			dv := dense.pow(gazetteer.CityID(a), gazetteer.CityID(b))
			fv := fallback.pow(gazetteer.CityID(a), gazetteer.CityID(b))
			if dv != fv {
				t.Fatalf("pair (%d,%d): dense %v != fallback %v", a, b, dv, fv)
			}
		}
	}
	if fallback.row(0) != nil {
		t.Error("fallback mode should expose no dense rows")
	}
}

// TestPairBinCacheSharedAcrossFits: fits on the same gazetteer — in
// particular CV folds, which share the Gazetteer through
// Corpus.WithUsers — must reuse one pair-bin build instead of re-paying
// the L² haversines, while a different gazetteer gets its own entry.
func TestPairBinCacheSharedAcrossFits(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 19, NumUsers: 150, NumLocations: 80})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Fit(&d.Corpus, Config{Seed: 1, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	folds := dataset.KFold(len(d.Corpus.Users), 5, 99)
	m2, err := Fit(d.Corpus.WithUsers(d.Corpus.HideLabels(folds[0])), Config{Seed: 2, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m1.dt == nil || m2.dt == nil {
		t.Fatal("default fits should build the distance table")
	}
	if m1.dt.pb != m2.dt.pb {
		t.Error("fits on one gazetteer built separate pair-bin levels")
	}
	if m1.dt.powTab == nil || m2.dt.powTab == nil {
		t.Fatal("powTab missing")
	}
	if &m1.dt.powTab[0] == &m2.dt.powTab[0] {
		t.Error("powTab (α-dependent) must not be shared across fits")
	}

	d2, err := synth.Generate(synth.Config{Seed: 20, NumUsers: 150, NumLocations: 80})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Fit(&d2.Corpus, Config{Seed: 1, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m3.dt.pb == m1.dt.pb {
		t.Error("distinct gazetteers share a pair-bin level")
	}
}

// TestPairBinCacheEviction: the cache is bounded FIFO; pushing more
// gazetteers than the cap evicts the oldest entry, and a rebuilt entry
// still produces identical bins (immutability makes eviction safe).
func TestPairBinCacheEviction(t *testing.T) {
	gaz := func(d float64) *gazetteer.Gazetteer { return milesApartGazetteer(t, []float64{d, 2 * d}) }
	g0 := gaz(5)
	dc0 := newDistCalc(g0)
	pb0 := pairBinsFor(dc0, g0, g0.Len())
	for i := 0; i < maxPairBinCacheEntries; i++ {
		g := gaz(10 + float64(i))
		pairBinsFor(newDistCalc(g), g, g.Len())
	}
	pb0again := pairBinsFor(dc0, g0, g0.Len())
	if pb0again == pb0 {
		t.Error("entry survived past the cache cap")
	}
	for i := range pb0.pairBin {
		if pb0.pairBin[i] != pb0again.pairBin[i] {
			t.Fatal("rebuilt pair bins differ from the evicted build")
		}
	}
}

// TestDistTableAlphaEpochInvalidation: setAlpha must advance the epoch,
// rewrite powTab, and make per-edge caches rebuild their static sums.
func TestDistTableAlphaEpochInvalidation(t *testing.T) {
	d, err := synth.Generate(synth.Config{Seed: 13, NumUsers: 120, NumLocations: 60})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 2, BlockedSampler: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.dt == nil || m.etab == nil {
		t.Fatal("blocked fit with default config should build the table and edge caches")
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
}

// BenchmarkEdgeCacheRebuild measures one α-epoch rebuild of a per-edge
// static row-sum cache (the amortized cost behind Gibbs-EM refits).
func BenchmarkEdgeCacheRebuild(b *testing.B) {
	d, err := synth.Generate(synth.Config{Seed: 17, NumUsers: 300, NumLocations: 100})
	if err != nil {
		b.Fatal(err)
	}
	m, err := Fit(&d.Corpus, Config{Seed: 3, Iterations: 1, BlockedSampler: true})
	if err != nil {
		b.Fatal(err)
	}
	e := m.corpus.Edges[0]
	candI, candJ := m.cands.cand[e.From], m.cands.cand[e.To]
	gammaJ := m.cands.gamma[e.To]
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.etab[0].epoch = m.dt.epoch - 1 // force rebuild
		m.edgeCacheFor(0, candI, candJ, gammaJ)
	}
}

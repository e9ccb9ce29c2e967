package core

import (
	"math/rand"
	"testing"

	"mlprofile/internal/gazetteer"
)

// TestPsiRowDeleteAtZero: the base store's delete-at-zero — removing the
// last count must remove the entry (present ⇒ positive) and keep probes
// correct.
func TestPsiRowDeleteAtZero(t *testing.T) {
	ps := newPsiStore(3)
	v := gazetteer.VenueID(1)
	ps.add(v, 7, 1)
	ps.add(v, 7, 1)
	ps.add(v, 9, 1)
	if got := ps.get(v, 7); got != 2 {
		t.Fatalf("count(7) = %v, want 2", got)
	}
	ps.add(v, 7, -1)
	if got := ps.get(v, 7); got != 1 {
		t.Fatalf("count(7) = %v, want 1", got)
	}
	ps.add(v, 7, -1)
	if got := ps.get(v, 7); got != 0 {
		t.Fatalf("count(7) = %v after delete-at-zero, want 0", got)
	}
	if live := ps.rows[v].live(); live != 1 {
		t.Fatalf("row live = %d after delete-at-zero, want 1", live)
	}
	if got := ps.get(v, 9); got != 1 {
		t.Fatalf("count(9) = %v disturbed by neighbor deletion, want 1", got)
	}
	// Other venues' rows stay untouched (and unallocated).
	if ps.rows[0].slots != nil || ps.rows[2].slots != nil {
		t.Error("untouched venue rows were allocated")
	}
}

// TestPsiRowStressVsMap drives one row through a long random add/remove
// sequence against a reference map, checking every lookup. This is the
// backward-shift deletion's stress test: deletions at 3/4 load with
// colliding probe chains are exactly where a tombstone-free scheme
// breaks if the shift condition is wrong.
func TestPsiRowStressVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ps := newPsiStore(1)
	ref := map[int32]float64{}
	const cities = 60 // dense key space forces collisions and growth
	for op := 0; op < 20000; op++ {
		l := int32(rng.Intn(cities))
		if ref[l] > 0 && rng.Intn(2) == 0 {
			ps.add(0, gazetteer.CityID(l), -1)
			ref[l]--
			if ref[l] == 0 {
				delete(ref, l)
			}
		} else {
			ps.add(0, gazetteer.CityID(l), 1)
			ref[l]++
		}
		if op%97 == 0 {
			for c := int32(0); c < cities; c++ {
				if got, want := ps.get(0, gazetteer.CityID(c)), ref[c]; got != want {
					t.Fatalf("op %d: count(%d) = %v, want %v", op, c, got, want)
				}
			}
			if ps.rows[0].live() != len(ref) {
				t.Fatalf("op %d: live = %d, want %d", op, ps.rows[0].live(), len(ref))
			}
		}
	}
}

// psiModel builds a model skeleton holding just the venue-count state.
func psiModel(numVenues, L int) *Model {
	return &Model{
		cfg:        Config{Delta: 0.01},
		numVenues:  numVenues,
		deltaTotal: 0.01 * float64(numVenues),
		venueSum:   make([]float64, L),
		venueRSum:  make([]float64, L),
		ps:         newPsiStore(numVenues),
	}
}

// psiFixture adds one shard context to psiModel — enough machinery to
// exercise the overlay and fold without a full Fit.
func psiFixture(numVenues, L int) (*Model, *sweepCtx) {
	m := psiModel(numVenues, L)
	ctx := &sweepCtx{m: m}
	ctx.ensureOverlay()
	m.shCtxs = []*sweepCtx{ctx}
	return m, ctx
}

// TestPsiOverlayNegativeDeltasFold: overlay deltas that go negative must
// read back correctly through the shard's psi, and folding them must
// drive the base entry exactly to zero (deleting it) — plus a delta that
// returns to zero within the phase must fold as a no-op.
func TestPsiOverlayNegativeDeltasFold(t *testing.T) {
	m, ctx := psiFixture(4, 6)
	v1, v2 := gazetteer.VenueID(1), gazetteer.VenueID(2)

	// Base counts: two tweets at (v1, city 3), three at (v2, city 1).
	m.shiftVenue(3, v1, 1)
	m.shiftVenue(3, v1, 1)
	for i := 0; i < 3; i++ {
		m.shiftVenue(1, v2, 1)
	}

	// Shard: net −2 on (v1, 3); +1 then −1 (net zero) on (v2, 1).
	ctx.shiftVenue(3, v1, -1)
	if got, want := ctx.psi(3, v1), m.psiFrom(1, 1); got != want {
		t.Fatalf("shard psi mid-phase = %v, want %v", got, want)
	}
	ctx.shiftVenue(3, v1, -1)
	if got := ctx.ovl.get(v1, 3); got != -2 {
		t.Fatalf("overlay delta = %v, want -2", got)
	}
	if got, want := ctx.psi(3, v1), m.psiFrom(0, 0); got != want {
		t.Fatalf("shard psi at zero = %v, want %v", got, want)
	}
	ctx.shiftVenue(1, v2, 1)
	ctx.shiftVenue(1, v2, -1)

	// The frozen base is untouched until the fold.
	if got := m.ps.get(v1, 3); got != 2 {
		t.Fatalf("base count mutated mid-phase: %v", got)
	}

	m.foldVenueDeltasFrom(m.shCtxs)

	if got := m.ps.get(v1, 3); got != 0 {
		t.Fatalf("folded count = %v, want 0", got)
	}
	if live := m.ps.rows[v1].live(); live != 0 {
		t.Fatalf("zero-count entry survived the fold (live=%d)", live)
	}
	if got := m.ps.get(v2, 1); got != 3 {
		t.Fatalf("net-zero delta changed count: %v, want 3", got)
	}
	if m.venueSum[3] != 0 || m.venueSum[1] != 3 {
		t.Fatalf("venueSum after fold: %v", m.venueSum)
	}
	// Overlay fully reset for the next phase.
	if len(ctx.ovlVenues) != 0 || len(ctx.ovlCities) != 0 {
		t.Error("dirty lists not cleared by fold")
	}
	for _, s := range ctx.ovlSum {
		if s != 0 {
			t.Fatal("ovlSum not cleared by fold")
		}
	}
	for v := range ctx.ovl.rows {
		if ctx.ovl.rows[v].live() != 0 || ctx.ovl.rows[v].touched {
			t.Fatalf("overlay row %d not reset", v)
		}
	}
}

// gatheredPsi is ψ̂_l(v) for the venue of ctx's last gatherPsi call, as
// the gather scratch serves it (own overlay deltas included on both the
// count and the sum side).
func gatheredPsi(ctx *sweepCtx, l gazetteer.CityID) float64 {
	m := ctx.m
	var cnt float64
	if cell := &ctx.gcells[l]; cell.stamp == ctx.gepoch {
		cnt = cell.cnt
	}
	sum := m.venueSum[l]
	if ctx.ovl != nil {
		sum += ctx.ovlSum[l]
	}
	return m.psiFrom(cnt, sum)
}

// TestGatherMatchesPsi: the gather must resolve, for every candidate
// city, exactly the value the per-candidate psi probe returns — bit for
// bit, with and without pending overlay deltas. This is the identity the
// tweet kernel's batch cache relies on.
func TestGatherMatchesPsi(t *testing.T) {
	const V, L = 40, 50
	m, ctx := psiFixture(V, L)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 600; i++ {
		m.shiftVenue(gazetteer.CityID(rng.Intn(L)), gazetteer.VenueID(rng.Intn(V)), 1)
	}
	seq := &sweepCtx{m: m} // sequential reader: no overlay
	for v := 0; v < V; v++ {
		seq.gatherPsi(gazetteer.VenueID(v))
		for l := 0; l < L; l++ {
			got := gatheredPsi(seq, gazetteer.CityID(l))
			want := seq.psi(gazetteer.CityID(l), gazetteer.VenueID(v))
			if got != want {
				t.Fatalf("seq gather (v=%d, l=%d): %v != psi %v", v, l, got, want)
			}
		}
	}
	// Pile ±1 deltas into the shard overlay, then re-check through it.
	for i := 0; i < 300; i++ {
		l := gazetteer.CityID(rng.Intn(L))
		v := gazetteer.VenueID(rng.Intn(V))
		if m.ps.get(v, l)+ctx.ovl.get(v, l) > 0 && rng.Intn(2) == 0 {
			ctx.shiftVenue(l, v, -1)
		} else {
			ctx.shiftVenue(l, v, 1)
		}
	}
	for v := 0; v < V; v++ {
		ctx.gatherPsi(gazetteer.VenueID(v))
		for l := 0; l < L; l++ {
			got := gatheredPsi(ctx, gazetteer.CityID(l))
			want := ctx.psi(gazetteer.CityID(l), gazetteer.VenueID(v))
			if got != want {
				t.Fatalf("overlay gather (v=%d, l=%d): %v != psi %v", v, l, got, want)
			}
		}
	}
}

// benchPsiWorld populates a model skeleton with a realistic count shape:
// every venue concentrated on a handful of cities, as sampling produces.
func benchPsiWorld() (*Model, []gazetteer.CityID) {
	const V, L = 600, 250
	m := psiModel(V, L)
	rng := rand.New(rand.NewSource(3))
	for v := 0; v < V; v++ {
		for i, n := 0, 2+rng.Intn(6); i < n; i++ {
			l := gazetteer.CityID(rng.Intn(L))
			for c, reps := 0, 1+rng.Intn(4); c < reps; c++ {
				m.shiftVenue(l, gazetteer.VenueID(v), 1)
			}
		}
	}
	cand := make([]gazetteer.CityID, 40) // default MaxCandidates
	for i := range cand {
		cand[i] = gazetteer.CityID(rng.Intn(L))
	}
	return m, cand
}

// BenchmarkPsiLookup measures one tweet update's worth of ψ̂ resolution —
// all 40 candidate counts for one venue — as one row gather then array
// reads, directly and through a shard overlay carrying pending deltas.
func BenchmarkPsiLookup(b *testing.B) {
	for _, overlay := range []bool{false, true} {
		read := "direct"
		if overlay {
			read = "overlay"
		}
		b.Run("read="+read, func(b *testing.B) {
			m, cand := benchPsiWorld()
			ctx := &sweepCtx{m: m}
			if overlay {
				ctx.ensureOverlay()
				for v := 0; v < m.numVenues; v += 3 {
					ctx.shiftVenue(cand[v%len(cand)], gazetteer.VenueID(v), 1)
				}
			}
			b.ResetTimer()
			var sink float64
			for n := 0; n < b.N; n++ {
				ctx.gatherPsi(gazetteer.VenueID(n % m.numVenues))
				for _, l := range cand {
					sink += gatheredPsi(ctx, l)
				}
			}
			_ = sink
		})
	}
}

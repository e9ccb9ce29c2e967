package core

import (
	"mlprofile/internal/gazetteer"
)

// This file implements the venue-major collapsed count store (see
// DESIGN.md §8). The tweet kernel's ψ̂ factor needs the count φ_{l,v}
// once per candidate per tweet (Eqs. 6/9). A city-major layout would pay
// a hash plus a pointer chase into a different map per probe, and the
// shard overlay would double it. The venue-major layout inverts the
// nesting: all counts of one venue — the quantity a single tweet update
// actually needs across its ≤MaxCandidates candidate cities — sit
// together in one compact row, so a gather (sweepCtx.gatherPsi) resolves
// every candidate's count in one pass over the row and the per-candidate
// cost drops to one array load. Counts are gathered, never approximated.
//
// Row layout: the live (city, count) pairs sit densely in two compact
// parallel arrays, and the open-addressed hash table stores compact
// indexes instead of keys. Probes pay one extra indirection per step
// (slot → compact city), but the gather — the hot per-tweet operation —
// walks exactly the live entries instead of the table's slot capacity,
// which early in sampling (venues spread over many cities, tables grown
// wide) is the difference between O(live) and O(4·live) per tweet.

// psiEmptySlot marks a free slot in a row's open-addressed index table.
// Compact indexes are non-negative, so -1 can never collide.
const psiEmptySlot = int32(-1)

// psiRowInitCap is a fresh row's slot count. Venues touch few cities
// (sampling concentrates each venue's tweets onto a handful of candidate
// assignments), so rows start small and stay cache-resident.
const psiRowInitCap = 8

// psiHashCity spreads a city id over a power-of-two table. City ids are
// small dense integers; the multiplicative mix avoids the clustering
// linear probing would suffer if consecutive ids hashed consecutively
// after growth.
func psiHashCity(l int32) uint32 {
	h := uint32(l) * 0x9e3779b1
	return h ^ h>>15
}

// psiRow is one venue's (city, count) set: the live pairs packed into
// cities/vals, indexed by an open-addressed linear-probing slot table
// (power-of-two sized, max load 3/4, backward-shift deletion — no
// tombstones, so probe chains never rot). The base store keeps the
// count invariant "present ⇒ positive" by deleting at zero; overlay
// rows hold ±1 deltas that may legitimately be negative or transiently
// zero, so they only accumulate and are bulk reset at the fold barrier
// (touched tracks membership in the shard's dirty-venue list).
type psiRow struct {
	slots   []int32   // open-addressed: compact index into cities/vals, or psiEmptySlot
	cities  []int32   // live cities, densely packed
	vals    []float64 // live counts, parallel to cities
	touched bool
}

// live returns the number of live (city, count) pairs.
func (r *psiRow) live() int { return len(r.cities) }

// probe walks city l's chain: the slot where l lives (or where it would
// be inserted) and l's compact index, -1 if absent.
func (r *psiRow) probe(l int32) (slot int, ci int32) {
	mask := len(r.slots) - 1
	i := int(psiHashCity(l)) & mask
	for {
		s := r.slots[i]
		if s == psiEmptySlot {
			return i, -1
		}
		if r.cities[s] == l {
			return i, s
		}
		i = (i + 1) & mask
	}
}

// findOrInsert returns city l's slot and compact index, appending a
// zero-count entry if absent, so a caller that may delete-at-zero
// needs no second probe. Growth (at 3/4 load) happens only on an
// actual insertion — updating a present key never widens the table, so
// per-tweet churn on existing entries cannot balloon the row.
func (r *psiRow) findOrInsert(l int32) (slot int, ci int32) {
	if len(r.slots) == 0 {
		r.slots = make([]int32, psiRowInitCap)
		for i := range r.slots {
			r.slots[i] = psiEmptySlot
		}
	}
	slot, ci = r.probe(l)
	if ci >= 0 {
		return slot, ci
	}
	if (len(r.cities)+1)*4 > len(r.slots)*3 {
		r.rehash(len(r.slots) * 2)
		slot, _ = r.probe(l) // re-probe in the grown table
	}
	ci = int32(len(r.cities))
	r.cities = append(r.cities, l)
	r.vals = append(r.vals, 0)
	r.slots[slot] = ci
	return slot, ci
}

// rehash rebuilds the slot table at n slots from the compact arrays
// (which rehashing never moves).
func (r *psiRow) rehash(n int) {
	r.slots = make([]int32, n)
	for i := range r.slots {
		r.slots[i] = psiEmptySlot
	}
	mask := n - 1
	for ci, l := range r.cities {
		j := int(psiHashCity(l)) & mask
		for r.slots[j] != psiEmptySlot {
			j = (j + 1) & mask
		}
		r.slots[j] = int32(ci)
	}
}

// delAt removes the entry at slot i / compact index ci: the standard
// linear-probing backward shift frees the slot (entries after i whose
// home slot lies cyclically outside (i, j] move back to fill the hole,
// so lookups never need tombstones), then the compact arrays swap-remove
// — the last pair moves into the hole and its slot is re-pointed.
func (r *psiRow) delAt(i int, ci int32) {
	mask := len(r.slots) - 1
	j := i
	for {
		j = (j + 1) & mask
		s := r.slots[j]
		if s == psiEmptySlot {
			break
		}
		h := int(psiHashCity(r.cities[s])) & mask
		var inChain bool
		if i <= j {
			inChain = i < h && h <= j
		} else {
			inChain = i < h || h <= j
		}
		if inChain {
			continue
		}
		r.slots[i] = s
		i = j
	}
	r.slots[i] = psiEmptySlot

	last := int32(len(r.cities) - 1)
	if ci != last {
		// Move the last pair into the hole and re-point its slot: the
		// table is consistent again after the shift, and the deleted
		// entry's slot is gone, so probing the moved city lands exactly
		// on the one slot still indexing `last`.
		r.cities[ci] = r.cities[last]
		r.vals[ci] = r.vals[last]
		slot, _ := r.probe(r.cities[ci])
		r.slots[slot] = ci
	}
	r.cities = r.cities[:last]
	r.vals = r.vals[:last]
	if len(r.cities)*8 <= len(r.slots) && len(r.slots) > psiRowInitCap {
		r.shrink()
	}
}

// shrink re-sizes the slot table down to fit the live entries after
// deletions thinned it out. Rows balloon once at initialization —
// random initial assignments spread a venue over many cities — and then
// concentrate as sampling sharpens profiles; shrink triggers at 1/8
// load and re-sizes to 2×live (≥8), so the next grow needs live to
// ~1.5× and the next shrink needs it to halve — enough hysteresis that
// the per-tweet remove/add churn cannot thrash.
func (r *psiRow) shrink() {
	n := psiRowInitCap
	for n < len(r.cities)*2 {
		n <<= 1
	}
	r.rehash(n)
}

// get returns city l's value, zero if absent.
func (r *psiRow) get(l int32) float64 {
	if len(r.slots) == 0 {
		return 0
	}
	mask := len(r.slots) - 1
	i := int(psiHashCity(l)) & mask
	for {
		s := r.slots[i]
		if s == psiEmptySlot {
			return 0
		}
		if r.cities[s] == l {
			return r.vals[s]
		}
		i = (i + 1) & mask
	}
}

// reset clears every entry in place, keeping the capacities for the
// next shard phase (overlay rows only).
func (r *psiRow) reset() {
	for i := range r.slots {
		r.slots[i] = psiEmptySlot
	}
	r.cities = r.cities[:0]
	r.vals = r.vals[:0]
	r.touched = false
}

// psiStore holds the venue-major rows: rows[v] is venue v's city counts.
// The model owns one instance for the collapsed counts; each shard owns
// a second instance whose rows carry deferred ±1 deltas (sweepCtx.ovl)
// during the frozen shard phase.
type psiStore struct {
	rows []psiRow
}

func newPsiStore(numVenues int) *psiStore {
	return &psiStore{rows: make([]psiRow, numVenues)}
}

// add accumulates d onto φ_{l,v} and deletes the entry when the count
// reaches zero (counts are integer-valued, so exact zero is reachable
// and "present ⇒ positive" keeps rows minimal).
func (ps *psiStore) add(v gazetteer.VenueID, l gazetteer.CityID, d float64) {
	r := &ps.rows[v]
	slot, ci := r.findOrInsert(int32(l))
	r.vals[ci] += d
	if r.vals[ci] <= 0 {
		r.delAt(slot, ci)
	}
}

// get returns φ_{l,v}.
func (ps *psiStore) get(v gazetteer.VenueID, l gazetteer.CityID) float64 {
	return ps.rows[v].get(int32(l))
}

// accumDelta adds d to an overlay row without delete-at-zero (deltas may
// pass through zero and go negative within a phase). firstTouch reports
// whether this was the venue's first write of the phase, so the caller
// can register it on the shard's dirty-venue list exactly once.
func (ps *psiStore) accumDelta(v gazetteer.VenueID, l gazetteer.CityID, d float64) (firstTouch bool) {
	r := &ps.rows[v]
	firstTouch = !r.touched
	r.touched = true
	_, ci := r.findOrInsert(int32(l))
	r.vals[ci] += d
	return firstTouch
}

// psiGatherWorthwhile reports whether a gather beats per-candidate row
// probes for venue v: the gather walks the compact live pairs (~1ns per
// pair — two sequential loads and a store), the probe path pays a hash,
// a two-load probe chain, and a call per candidate (~6-8ns; twice that
// with an overlay). The 6× factor is the measured cost ratio. Both
// paths resolve the exact same counts, so the choice never affects the
// chain.
func (c *sweepCtx) psiGatherWorthwhile(v gazetteer.VenueID, nCand int) bool {
	scan := c.m.ps.rows[v].live()
	if c.ovl != nil {
		scan += c.ovl.rows[v].live()
		nCand *= 2
	}
	return scan <= 6*nCand
}

// psiGatherCell is one city's slot in the gather scratch: the count
// gathered for the current venue, valid iff stamp equals the ctx epoch.
// Interleaving count and stamp keeps each gather write and each
// per-candidate read on one cache line.
type psiGatherCell struct {
	cnt   float64
	stamp uint64
}

// gatherPsi stamps venue v's counts — the base store row plus, on a
// shard, the overlay row's pending deltas — into the ctx's
// epoch-stamped scratch. One pass over the row's compact live pairs
// replaces per-candidate probes: after the gather, a candidate's count
// is one array read (gcells[l], valid iff its stamp equals gepoch). The
// epoch stamp makes clearing free; stamps are uint64, so wraparound is
// unreachable.
func (c *sweepCtx) gatherPsi(v gazetteer.VenueID) {
	m := c.m
	if len(c.gcells) != len(m.venueSum) {
		c.gcells = make([]psiGatherCell, len(m.venueSum))
	}
	c.gepoch++
	row := &m.ps.rows[v]
	vals := row.vals[:len(row.cities)]
	for i, l := range row.cities {
		c.gcells[l] = psiGatherCell{cnt: vals[i], stamp: c.gepoch}
	}
	if c.ovl != nil {
		orow := &c.ovl.rows[v]
		ovals := orow.vals[:len(orow.cities)]
		for i, l := range orow.cities {
			if c.gcells[l].stamp == c.gepoch {
				c.gcells[l].cnt += ovals[i]
			} else {
				c.gcells[l] = psiGatherCell{cnt: ovals[i], stamp: c.gepoch}
			}
		}
	}
}

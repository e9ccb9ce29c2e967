package core

// drawArena owns every scratch slice the draw pipeline of one sampler
// stream writes — the per-variable/tweet weight and prefix-sum buffers
// and the blocked kernel's factored buffers — unifying what used to be
// five hand-rolled slices spread over sweepCtx. One arena per sweepCtx:
// the sequential sampler's context owns one, and each shard's context
// owns its own, so no two goroutines ever share a buffer inside a color
// class or shard. All getters grow to capacity and re-slice, so
// the hot path performs no per-relationship allocations after warm-up.
//
// Every draw inverts one uniform over running prefix sums (DESIGN.md
// §9): cum holds them for the per-variable and tweet kernels, and
// rowCum — beside the raw rowMass, still needed for the within-row
// residual — for the blocked kernel's row inversion. wx and wy hold the
// blocked kernel's raw endpoint weights.
type drawArena struct {
	cum     []float64 // prefix sums of the per-candidate draws
	wx, wy  []float64 // blocked kernel's endpoint weights (always raw)
	rowMass []float64 // blocked kernel's raw per-row masses
	rowCum  []float64 // prefix sums over rowMass
	supJ    []int32   // blocked kernel's friend-side support indices
}

// grow returns s re-sliced to length n, reallocating when capacity is
// short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// cumBuf returns the prefix-sum slice for one draw.
func (a *drawArena) cumBuf(n int) []float64 {
	a.cum = grow(a.cum, n)
	return a.cum
}

// bufBlocked returns the scratch of the blocked edge kernel: endpoint
// weights, raw per-row masses, and the friend-side support buffer.
func (a *drawArena) bufBlocked(nI, nJ int) (wx, wy, rowMass []float64, supJ []int32) {
	a.wx = grow(a.wx, nI)
	a.wy = grow(a.wy, nJ)
	a.rowMass = grow(a.rowMass, nI)
	if cap(a.supJ) < nJ {
		a.supJ = make([]int32, nJ)
	}
	return a.wx, a.wy, a.rowMass, a.supJ[:nJ]
}

// rowCumBuf returns the row prefix-sum slice the blocked kernel fills
// beside the raw row masses.
func (a *drawArena) rowCumBuf(n int) []float64 {
	a.rowCum = grow(a.rowCum, n)
	return a.rowCum
}

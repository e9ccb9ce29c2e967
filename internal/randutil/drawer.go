package randutil

import (
	"math"
	"math/rand"
)

// This file implements the fused draw pipeline (DESIGN.md §9): a
// categorical draw expressed over running prefix sums instead of raw
// weights. Categorical makes three passes per draw — the caller's fill
// loop, a summation pass, and an inversion scan — while the fused form
// folds summation into the fill (the caller accumulates a running total
// as it computes each weight and stores the prefix) and inverts the one
// uniform over the monotone prefix array: a linear scan for short
// arrays, a lower-bound binary search above InvertCrossover.
//
// RNG-coupling contract: for weight sequences containing no NaNs, a
// fused draw consumes exactly one rng.Float64() and returns exactly the
// index Categorical would have returned on the raw weights, provided
// the prefix was accumulated in index order with non-positive weights
// contributing zero (FusedCategorical does this; the sampler kernels add
// unconditionally because their weights are products of non-negative
// factors, for which x+0 is bitwise x). When the total is non-positive
// the draw returns -1 WITHOUT consuming a uniform, again matching
// Categorical — this is what keeps the exact and distance-table chains
// coupled draw for draw.
//
// The only divergence from Categorical is the float-slack fallback
// (u rounding up to the exact total): Categorical returns the last
// positive-weight index, the fused inversion the last index whose
// prefix strictly increased. The two differ only when a positive weight
// is so small against the running total that adding it does not change
// the float — and the fallback itself fires only on a boundary rounding
// of u, so the combination is unobserved.

// InvertCrossover is the prefix length at which InvertCum switches from
// the linear scan to the binary search. The scan's sequential,
// predictable loads (one mispredict, at the exit) beat the search's
// serialized dependent probes up to surprisingly long prefixes —
// measured breakeven ≈128 on the bench hardware (BenchmarkInvertCum:
// 32ns vs 43ns at n=40, parity at n=128) — so candidate-sized draws
// (≤MaxCandidates) scan and only the blocked kernel's joint pair draw
// (nI·nJ, up to 1600) binary-searches. The boundary behavior is locked
// by TestInvertCumCrossoverBoundary.
const InvertCrossover = 128

// InvertCum draws an index from the non-decreasing prefix-sum array cum
// (cum[i] = sum of weights 0..i): the smallest i with u < cum[i] for a
// single uniform u over the total mass. It returns -1 — consuming no
// randomness — when cum is empty or its total is non-positive. A
// zero-weight index (a flat step in cum) can never be the first strict
// exceedance, so, like Categorical, InvertCum never returns one.
func InvertCum(rng *rand.Rand, cum []float64) int {
	n := len(cum)
	if n == 0 {
		return -1
	}
	total := cum[n-1]
	if total <= 0 {
		return -1
	}
	u := rng.Float64() * total
	if i := SearchCum(cum, u); i >= 0 {
		return i
	}
	return cumFallback(cum)
}

// SearchCum returns the smallest index with cum[i] > u — the inversion
// point of a uniform scaled onto the prefix mass — or -1 when u lies on
// or above the final prefix (float slack; the caller picks its
// fallback) or cum is empty. Both cum and u must be non-negative.
// Below InvertCrossover it is a linear scan; above, a lower-bound
// halving search over *bit patterns* — non-negative IEEE doubles order
// exactly like their unsigned bits, so the probe compares integers,
// which the compiler lowers to a conditional move and the search's
// inherently 50/50 comparisons cost no pipeline flush the way a scan's
// mispredicted exit branch does. The blocked-table kernel shares this
// for its hierarchical row pick.
func SearchCum(cum []float64, u float64) int {
	n := len(cum)
	if n <= InvertCrossover {
		for i, c := range cum {
			if u < c {
				return i
			}
		}
		return -1
	}
	ub := math.Float64bits(u)
	lo, sz := 0, n
	for sz > 1 {
		half := sz >> 1
		v := math.Float64bits(cum[lo+half-1])
		if v <= ub {
			lo += half
		}
		sz -= half
	}
	if u < cum[lo] {
		return lo
	}
	return -1
}

// cumFallback resolves the float-slack case (u landed on or above the
// total): the last index whose prefix strictly increased, i.e. the last
// index that carried positive weight. Mirrors Categorical's trailing
// positive-weight scan.
func cumFallback(cum []float64) int {
	for i := len(cum) - 1; i >= 0; i-- {
		prev := 0.0
		if i > 0 {
			prev = cum[i-1]
		}
		if cum[i] > prev {
			return i
		}
	}
	return -1
}

// FusedCategorical is Categorical over raw weights, restructured as one
// prefix-accumulation pass into cum (which must have len(weights)
// capacity behind it) followed by an InvertCum inversion: one pass plus
// a search instead of Categorical's sum pass and scan pass. Identical
// draw semantics and RNG consumption. Callers that must keep raw
// weights around (the blocked kernels' factored products) use this for
// their side draws; callers that need no raw weights accumulate the
// prefix directly in their fill loop and call InvertCum.
func FusedCategorical(rng *rand.Rand, weights, cum []float64) int {
	cum = cum[:len(weights)]
	var total float64
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	return InvertCum(rng, cum)
}

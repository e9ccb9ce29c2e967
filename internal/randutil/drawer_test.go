package randutil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawerSizes spans the regimes InvertCum switches between: empty,
// singleton, short linear-scan lengths, both sides of the scan→binary
// crossover, and comfortably-binary lengths.
func drawerSizes() []int {
	return []int{0, 1, 2, 3, 7, InvertCrossover - 1, InvertCrossover, InvertCrossover + 1, 40, 100, 257}
}

// randWeights fills n weights from the generator: mostly positive, with
// a sprinkling of exact zeros and (when allowNeg) negatives, so the
// skip-non-positive contract is exercised at every size.
func randWeights(rng *rand.Rand, n int, allowNeg bool) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch rng.Intn(10) {
		case 0:
			w[i] = 0
		case 1:
			if allowNeg {
				w[i] = -rng.Float64()
			} else {
				w[i] = rng.Float64() * 1e-12
			}
		default:
			w[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(6)-3))
		}
	}
	return w
}

// TestDrawerMatchesCategorical is the coupling property of the in-fill
// draw form the sampler kernels use: the caller adds each non-negative
// weight to a running total as it fills the prefix (unconditionally, as
// x+0 is bitwise x), then inverts one uniform with InvertCum, reusing
// the prefix buffer from draw to draw. On identical RNG streams this
// must return exactly the index sequence Categorical returns on the raw
// weights and leave the streams aligned.
func TestDrawerMatchesCategorical(t *testing.T) {
	gen := rand.New(rand.NewSource(11))
	for _, n := range drawerSizes() {
		cum := make([]float64, 0, n)
		for trial := 0; trial < 50; trial++ {
			w := randWeights(gen, n, false)
			seed := gen.Int63()
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed))
			for draw := 0; draw < 4; draw++ {
				want := Categorical(rngA, w)
				cum = cum[:0]
				var total float64
				for _, wi := range w {
					total += wi
					cum = append(cum, total)
				}
				if got := InvertCum(rngB, cum); got != want {
					t.Fatalf("n=%d trial=%d draw=%d: in-fill InvertCum %d != Categorical %d (weights %v)", n, trial, draw, got, want, w)
				}
				if rngA.Float64() != rngB.Float64() {
					t.Fatalf("n=%d trial=%d draw=%d: RNG streams diverged after draw", n, trial, draw)
				}
			}
		}
	}
}

// TestFusedCategoricalMatchesCategorical is the coupling property: on
// identical RNG streams, FusedCategorical (prefix fill + single-uniform
// inversion) must return exactly the index Categorical returns on the
// raw weights — across sizes spanning the crossover and weights
// including zeros and negatives — and leave the streams aligned.
func TestFusedCategoricalMatchesCategorical(t *testing.T) {
	gen := rand.New(rand.NewSource(12))
	for _, n := range drawerSizes() {
		cum := make([]float64, n)
		for trial := 0; trial < 50; trial++ {
			w := randWeights(gen, n, true)
			seed := gen.Int63()
			rngA := rand.New(rand.NewSource(seed))
			rngB := rand.New(rand.NewSource(seed))
			want := Categorical(rngA, w)
			got := FusedCategorical(rngB, w, cum)
			if got != want {
				t.Fatalf("n=%d trial=%d: FusedCategorical %d != Categorical %d (weights %v)", n, trial, got, want, w)
			}
			if rngA.Float64() != rngB.Float64() {
				t.Fatalf("n=%d trial=%d: RNG streams diverged", n, trial)
			}
		}
	}
}

// TestInvertCumCrossoverBoundary forces identical prefixes through both
// inversion regimes: a draw over n=InvertCrossover (linear scan) and the
// same mass extended by one zero-weight category to n=InvertCrossover+1
// (binary search) must pick the same category for the same uniform —
// the appended flat step can never be drawn.
func TestInvertCumCrossoverBoundary(t *testing.T) {
	gen := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		w := randWeights(gen, InvertCrossover, false)
		scan := make([]float64, 0, InvertCrossover+1)
		total := 0.0
		for _, wi := range w {
			if wi > 0 {
				total += wi
			}
			scan = append(scan, total)
		}
		binary := append(append([]float64{}, scan...), total) // one flat step → binary regime
		seed := gen.Int63()
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))
		a := InvertCum(rngA, scan)
		b := InvertCum(rngB, binary)
		if a != b {
			t.Fatalf("trial %d: scan regime drew %d, binary regime drew %d", trial, a, b)
		}
	}
}

// TestDrawerEdgeCases locks the fused draw's degenerate inputs
// (FusedCategorical over InvertCum): empty, all-zero, and all-negative
// draws return -1 and consume no randomness; zero and negative entries
// between positive ones are never drawn.
func TestDrawerEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range [][]float64{{}, {0}, {0, 0, 0}, {-1, -2}, {0, -3, 0}} {
		cum := make([]float64, len(w))
		r1 := rand.New(rand.NewSource(99))
		if got := FusedCategorical(r1, w, cum); got != -1 {
			t.Errorf("weights %v: got %d, want -1", w, got)
		}
		if r1.Float64() != rand.New(rand.NewSource(99)).Float64() {
			t.Errorf("weights %v: a -1 draw consumed randomness", w)
		}
		if len(cum) > 0 && cum[len(cum)-1] != 0 {
			t.Errorf("weights %v: total %v, want 0", w, cum[len(cum)-1])
		}
	}
	// Zero/negative entries surrounded by mass must never be selected.
	w := []float64{1, 0, 2, -5, 3}
	cum := make([]float64, len(w))
	counts := make([]int, len(w))
	for i := 0; i < 5000; i++ {
		counts[FusedCategorical(rng, w, cum)]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Errorf("zero/negative categories drawn: counts %v", counts)
	}
}

// TestDrawerFrequencies is the distributional property of the fused
// draw: empirical FusedCategorical frequencies track the normalized
// weights. (Exactness per draw is already locked against Categorical;
// this guards the inversion's use of the uniform end to end.)
func TestDrawerFrequencies(t *testing.T) {
	w := []float64{1, 2, 3, 4, 0, 10}
	var totalW float64
	for _, wi := range w {
		totalW += wi
	}
	rng := rand.New(rand.NewSource(5))
	cum := make([]float64, len(w))
	const draws = 200000
	counts := make([]int, len(w))
	for i := 0; i < draws; i++ {
		counts[FusedCategorical(rng, w, cum)]++
	}
	for i, wi := range w {
		got := float64(counts[i]) / draws
		want := wi / totalW
		if math.Abs(got-want) > 0.005 {
			t.Errorf("category %d: frequency %.4f, want %.4f±0.005", i, got, want)
		}
	}
}

// TestCumFallback pins the float-slack fallback: the last index whose
// prefix strictly increased, skipping trailing flat (zero-weight) steps.
func TestCumFallback(t *testing.T) {
	cases := []struct {
		cum  []float64
		want int
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{1, 2, 2}, 1},
		{[]float64{0, 0, 5, 5}, 2},
		{[]float64{2}, 0},
		{[]float64{0, 0}, -1},
		{nil, -1},
	}
	for _, c := range cases {
		if got := cumFallback(c.cum); got != c.want {
			t.Errorf("cumFallback(%v) = %d, want %d", c.cum, got, c.want)
		}
	}
}

// --- Micro-benchmarks: the three draw forms across both inversion
// regimes. The Categorical/FusedCategorical ratio at each size is the
// per-draw saving the fused pipeline banks before any kernel
// restructuring.

func benchWeights(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	return w
}

func BenchmarkCategoricalBySize(b *testing.B) {
	for _, n := range []int{8, 16, 40, 64, 128, 256, 512} {
		w := benchWeights(n)
		rng := rand.New(rand.NewSource(2))
		b.Run(sizeName(n), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += Categorical(rng, w)
			}
			_ = sink
		})
	}
}

func BenchmarkDrawer(b *testing.B) {
	for _, n := range []int{8, 16, 40, 64, 128, 256, 512} {
		w := benchWeights(n)
		cum := make([]float64, n)
		rng := rand.New(rand.NewSource(2))
		b.Run(sizeName(n), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += FusedCategorical(rng, w, cum)
			}
			_ = sink
		})
	}
}

// BenchmarkInvertCum isolates the inversion (prefix already built) —
// the per-draw floor once a kernel fills prefixes in its weight loop.
func BenchmarkInvertCum(b *testing.B) {
	for _, n := range []int{8, 16, 40, 64, 128, 256, 512} {
		w := benchWeights(n)
		cum := make([]float64, n)
		total := 0.0
		for i, wi := range w {
			total += wi
			cum[i] = total
		}
		rng := rand.New(rand.NewSource(2))
		b.Run(sizeName(n), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += InvertCum(rng, cum)
			}
			_ = sink
		})
	}
}

func sizeName(n int) string { return fmt.Sprintf("n=%03d", n) }

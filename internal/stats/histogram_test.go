package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearHistogramBasics(t *testing.T) {
	h, err := NewLinearHistogram(0, 10, 5) // [0,10) [10,20) ... [40,50), overflow >= 50
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 5, 9.999, 10, 25, 49, 50, 1000, -3} {
		h.Observe(x)
	}
	wantCounts := []float64{3, 1, 1, 0, 1}
	for i, w := range wantCounts {
		if h.Count(i) != w {
			t.Errorf("bin %d = %f, want %f", i, h.Count(i), w)
		}
	}
	if h.Overflow() != 2 {
		t.Errorf("overflow = %f, want 2", h.Overflow())
	}
	if h.Total() != 8 { // -3 dropped
		t.Errorf("total = %f, want 8", h.Total())
	}
	if h.Bins() != 5 {
		t.Errorf("bins = %d", h.Bins())
	}
	if c := h.Center(0); c != 5 {
		t.Errorf("center(0) = %f, want 5", c)
	}
	lo, hi := h.Edges(2)
	if lo != 20 || hi != 30 {
		t.Errorf("edges(2) = %f,%f", lo, hi)
	}
}

func TestLogHistogramBasics(t *testing.T) {
	h, err := NewLogHistogram(1, 2, 10) // [1,2) [2,4) [4,8) ...
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 1.5, 2, 3, 4, 0.5} {
		h.Observe(x)
	}
	if h.Count(0) != 2 || h.Count(1) != 2 || h.Count(2) != 1 {
		t.Errorf("counts = %f %f %f", h.Count(0), h.Count(1), h.Count(2))
	}
	if h.Total() != 5 { // 0.5 below range
		t.Errorf("total = %f", h.Total())
	}
	lo, hi := h.Edges(1)
	if !almostEqual(lo, 2, 1e-9) || !almostEqual(hi, 4, 1e-9) {
		t.Errorf("edges(1) = %f,%f", lo, hi)
	}
	if c := h.Center(1); !almostEqual(c, math.Sqrt(8), 1e-9) {
		t.Errorf("center(1) = %f, want sqrt(8)", c)
	}
}

func TestHistogramConstructorsReject(t *testing.T) {
	if _, err := NewLinearHistogram(0, 0, 5); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewLinearHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewLogHistogram(0, 2, 5); err == nil {
		t.Error("zero min accepted")
	}
	if _, err := NewLogHistogram(1, 1, 5); err == nil {
		t.Error("ratio 1 accepted")
	}
}

func TestHistogramWeightsAndNaN(t *testing.T) {
	h, _ := NewLinearHistogram(0, 1, 3)
	h.Add(0.5, 2.5)
	h.Add(0.5, 0)        // no-op
	h.Add(0.5, -1)       // no-op
	h.Add(math.NaN(), 1) // dropped
	if h.Count(0) != 2.5 || h.Total() != 2.5 {
		t.Errorf("count=%f total=%f", h.Count(0), h.Total())
	}
}

// TestHistogramTotalInvariant: total always equals the sum of bins plus
// overflow, regardless of the input stream.
func TestHistogramTotalInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, _ := NewLinearHistogram(0, 3, 7)
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			h.Add(rng.NormFloat64()*20, rng.Float64())
		}
		var sum float64
		for i := 0; i < h.Bins(); i++ {
			sum += h.Count(i)
		}
		sum += h.Overflow()
		return math.Abs(sum-h.Total()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHistogramBinAndAddBin: Bin maps NaN and below-range values to −1
// and values from the last edge on to Bins(); AddBin drops bin −1, sends
// bin Bins() to the overflow, ignores non-positive weights and counts
// everything it keeps in the total — what Add does for the same values.
func TestHistogramBinAndAddBin(t *testing.T) {
	h, _ := NewLogHistogram(1, 2, 3) // [1,2) [2,4) [4,8), overflow >= 8
	for _, c := range []struct {
		x    float64
		want int
	}{{math.NaN(), -1}, {0.5, -1}, {1, 0}, {3, 1}, {7.9, 2}, {8, 3}, {1e9, 3}} {
		if got := h.Bin(c.x); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	h.AddBin(-1, 5)
	h.AddBin(1, 0)
	h.AddBin(1, -2)
	h.AddBin(1, 1.5)
	h.AddBin(3, 2)
	if h.Count(0) != 0 || h.Count(1) != 1.5 || h.Count(2) != 0 || h.Overflow() != 2 || h.Total() != 3.5 {
		t.Errorf("counts %v %v %v, overflow %v, total %v; want 0 1.5 0, 2, 3.5",
			h.Count(0), h.Count(1), h.Count(2), h.Overflow(), h.Total())
	}
}

// TestLogHistogramBinContainsCenter: every bin's center lies within its own
// edges, for both binning modes.
func TestHistogramCenterWithinEdges(t *testing.T) {
	hLin, _ := NewLinearHistogram(2, 5, 20)
	hLog, _ := NewLogHistogram(0.5, 1.7, 20)
	for _, h := range []*Histogram{hLin, hLog} {
		for i := 0; i < h.Bins(); i++ {
			lo, hi := h.Edges(i)
			c := h.Center(i)
			if c < lo || c > hi {
				t.Errorf("bin %d: center %f outside [%f,%f)", i, c, lo, hi)
			}
			if hi <= lo {
				t.Errorf("bin %d: degenerate edges [%f,%f)", i, lo, hi)
			}
		}
	}
}

func TestHistogramRatio(t *testing.T) {
	num, _ := NewLinearHistogram(0, 10, 4)
	den, _ := NewLinearHistogram(0, 10, 4)
	// Simulate: 100 pairs at short range with 10 edges; 1000 pairs at long
	// range with 10 edges — following probability should drop 10x.
	num.Add(5, 10)
	den.Add(5, 100)
	num.Add(35, 10)
	den.Add(35, 1000)
	centers, ratios, err := num.Ratio(den)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 2 || len(ratios) != 2 {
		t.Fatalf("got %d points", len(centers))
	}
	if !almostEqual(ratios[0], 0.1, 1e-12) || !almostEqual(ratios[1], 0.01, 1e-12) {
		t.Errorf("ratios = %v", ratios)
	}
	if centers[0] != 5 || centers[1] != 35 {
		t.Errorf("centers = %v", centers)
	}

	// Mismatched binning must be rejected.
	other, _ := NewLinearHistogram(0, 5, 4)
	if _, _, err := num.Ratio(other); err == nil {
		t.Error("binning mismatch accepted")
	}
	if _, _, err := num.Ratio(nil); err == nil {
		t.Error("nil denominator accepted")
	}
}

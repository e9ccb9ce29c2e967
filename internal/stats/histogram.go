package stats

import (
	"errors"
	"math"
)

// Histogram accumulates counts over a fixed binning of the positive real
// line. Binning is either linear (fixed width) or logarithmic (fixed ratio),
// chosen at construction. Log binning is what the paper uses implicitly when
// it plots following probabilities "in the log-log scale"; linear 1-mile
// bins are what it uses to *measure* them (Sec. 4.1).
type Histogram struct {
	log      bool
	width    float64 // bin width (linear) or log-ratio (log)
	min      float64 // lower bound of bin 0
	counts   []float64
	overflow float64
	total    float64
}

// NewLinearHistogram bins [min, min+width), [min+width, min+2*width), ...
// with nbins bins; values >= the last edge land in an overflow bucket.
func NewLinearHistogram(min, width float64, nbins int) (*Histogram, error) {
	if width <= 0 || nbins <= 0 {
		return nil, errors.New("stats: histogram width and bins must be positive")
	}
	return &Histogram{log: false, width: width, min: min, counts: make([]float64, nbins)}, nil
}

// NewLogHistogram bins [min, min*ratio), [min*ratio, min*ratio²), ... with
// nbins bins. min must be positive and ratio > 1.
func NewLogHistogram(min, ratio float64, nbins int) (*Histogram, error) {
	if min <= 0 || ratio <= 1 || nbins <= 0 {
		return nil, errors.New("stats: log histogram needs min>0, ratio>1, nbins>0")
	}
	return &Histogram{log: true, width: math.Log(ratio), min: min, counts: make([]float64, nbins)}, nil
}

// Bin returns the bin index for x, or -1 if below range, len(counts) if
// overflow. A bin computed once can be accumulated any number of times
// with AddBin.
func (h *Histogram) Bin(x float64) int {
	if math.IsNaN(x) {
		return -1
	}
	var idx float64
	if h.log {
		if x < h.min {
			return -1
		}
		idx = math.Log(x/h.min) / h.width
	} else {
		if x < h.min {
			return -1
		}
		idx = (x - h.min) / h.width
	}
	i := int(idx)
	if i < 0 {
		return -1
	}
	if i >= len(h.counts) {
		return len(h.counts)
	}
	return i
}

// Add accumulates weight w at value x. Below-range values are dropped;
// above-range values go to the overflow bucket. Add with w <= 0 is a no-op.
func (h *Histogram) Add(x, w float64) { h.AddBin(h.Bin(x), w) }

// AddBin accumulates weight w in bin i as returned by Bin, exactly as Add
// does for a value in that bin: i < 0 is dropped, i == Bins() goes to the
// overflow bucket, and w <= 0 is a no-op.
func (h *Histogram) AddBin(i int, w float64) {
	if w <= 0 {
		return
	}
	switch {
	case i < 0:
		return
	case i == len(h.counts):
		h.overflow += w
		h.total += w
	default:
		h.counts[i] += w
		h.total += w
	}
}

// Observe is Add with weight 1.
func (h *Histogram) Observe(x float64) { h.Add(x, 1) }

// Bins returns the number of (non-overflow) bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the accumulated weight in bin i.
func (h *Histogram) Count(i int) float64 { return h.counts[i] }

// Overflow returns the weight that fell above the last bin edge.
func (h *Histogram) Overflow() float64 { return h.overflow }

// Total returns the total accumulated weight (including overflow).
func (h *Histogram) Total() float64 { return h.total }

// Center returns the representative x value of bin i: the midpoint for
// linear bins, the geometric mean of the edges for log bins.
func (h *Histogram) Center(i int) float64 {
	if h.log {
		lo := h.min * math.Exp(float64(i)*h.width)
		hi := h.min * math.Exp(float64(i+1)*h.width)
		return math.Sqrt(lo * hi)
	}
	return h.min + (float64(i)+0.5)*h.width
}

// Edges returns the [lo, hi) boundaries of bin i.
func (h *Histogram) Edges(i int) (lo, hi float64) {
	if h.log {
		return h.min * math.Exp(float64(i)*h.width), h.min * math.Exp(float64(i+1)*h.width)
	}
	return h.min + float64(i)*h.width, h.min + float64(i+1)*h.width
}

// Ratio divides this histogram's counts by denom's bin-by-bin, returning
// (centers, ratios) for bins where denom has positive weight. The two
// histograms must have identical binning. This is exactly the paper's
// "probability of a following relationship at distance d" computation:
// numerator = edges bucketed by distance, denominator = user pairs bucketed
// by distance.
func (h *Histogram) Ratio(denom *Histogram) (centers, ratios []float64, err error) {
	if denom == nil || h.log != denom.log || h.width != denom.width ||
		h.min != denom.min || len(h.counts) != len(denom.counts) {
		return nil, nil, errors.New("stats: histogram binning mismatch")
	}
	for i := range h.counts {
		if denom.counts[i] > 0 {
			centers = append(centers, h.Center(i))
			ratios = append(ratios, h.counts[i]/denom.counts[i])
		}
	}
	return centers, ratios, nil
}

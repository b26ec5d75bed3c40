// Package stats provides the statistical machinery shared by all DiversiFi
// experiments: empirical CDFs and percentiles, windowed worst-case metrics,
// auto- and cross-correlation of loss processes, and burst-run analysis.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Percentile returns the p-th percentile (0..100) of the sample.
func (c *CDF) Percentile(p float64) float64 { return percentileSorted(c.sorted, p) }

// Min returns the smallest sample value.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[0]
}

// Max returns the largest sample value.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 { return Mean(c.sorted) }

// Points returns n evenly spaced (x, F(x)) points spanning the sample range,
// suitable for plotting the CDF as the paper's figures do.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.Min(), c.Max()
	pts := make([]Point, 0, n)
	if n == 1 || hi == lo {
		return append(pts, Point{X: hi, Y: 1})
	}
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return pts
}

// Point is an (x, y) pair in a rendered series.
type Point struct {
	X, Y float64
}

// AutoCorrelation returns the lag-k autocorrelation of the series xs
// (Pearson correlation between xs[t] and xs[t+k]). Returns 0 when the
// series is constant or too short.
func AutoCorrelation(xs []float64, lag int) float64 {
	if lag < 0 || len(xs) <= lag+1 {
		return 0
	}
	return CrossCorrelation(xs[:len(xs)-lag], xs[lag:])
}

// CrossCorrelation returns the Pearson correlation coefficient between the
// two equal-length series (trailing elements of the longer one are ignored).
func CrossCorrelation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < 2 {
		return 0
	}
	a, b = a[:n], b[:n]
	ma, mb := Mean(a), Mean(b)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// BurstHistogram summarizes runs of consecutive losses in a boolean loss
// sequence. Index i (1-based burst length) counts bursts of exactly that
// length; lengths above Cap collapse into the Overflow bucket, mirroring the
// ">10" bucket in the paper's Figures 5 and 9.
type BurstHistogram struct {
	Cap      int
	Counts   []int // Counts[k-1] = number of bursts of length k, k=1..Cap
	Overflow int   // bursts longer than Cap
}

// NewBurstHistogram analyses the loss sequence (true = lost) with the given
// maximum tracked burst length.
func NewBurstHistogram(lost []bool, cap_ int) *BurstHistogram {
	if cap_ <= 0 {
		cap_ = 10
	}
	h := &BurstHistogram{Cap: cap_, Counts: make([]int, cap_)}
	run := 0
	flush := func() {
		if run == 0 {
			return
		}
		if run <= cap_ {
			h.Counts[run-1]++
		} else {
			h.Overflow++
		}
		run = 0
	}
	for _, l := range lost {
		if l {
			run++
		} else {
			flush()
		}
	}
	flush()
	return h
}

// TotalLost returns the number of lost packets accounted for, attributing
// Cap+1 to each overflow burst as a lower bound.
func (h *BurstHistogram) TotalLost() int {
	total := 0
	for i, c := range h.Counts {
		total += (i + 1) * c
	}
	total += h.Overflow * (h.Cap + 1)
	return total
}

// LostInBursts returns the number of lost packets that occurred in bursts of
// two or more consecutive losses.
func (h *BurstHistogram) LostInBursts() int {
	total := 0
	for i, c := range h.Counts {
		if i >= 1 { // length >= 2
			total += (i + 1) * c
		}
	}
	total += h.Overflow * (h.Cap + 1)
	return total
}

// Merge accumulates other into h (histograms must share the same Cap).
func (h *BurstHistogram) Merge(other *BurstHistogram) {
	if other == nil {
		return
	}
	if other.Cap != h.Cap {
		panic(fmt.Sprintf("stats: merging burst histograms with caps %d and %d", h.Cap, other.Cap))
	}
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
	h.Overflow += other.Overflow
}

// AverageCounts returns per-burst-length average counts over n observations
// (e.g. calls), as plotted in the paper's Figures 5 and 9.
func (h *BurstHistogram) AverageCounts(n int) []float64 {
	if n <= 0 {
		n = 1
	}
	avg := make([]float64, h.Cap+1)
	for i, c := range h.Counts {
		avg[i] = float64(c) / float64(n)
	}
	avg[h.Cap] = float64(h.Overflow) / float64(n)
	return avg
}

// WorstWindowRate returns the highest fraction of true values in any
// contiguous window of size win over the sequence. It is the "worst
// 5-second period" metric when win = packets-per-5s. If the sequence is
// shorter than win the whole sequence forms one window.
func WorstWindowRate(lost []bool, win int) float64 {
	if len(lost) == 0 {
		return 0
	}
	if win <= 0 || win > len(lost) {
		win = len(lost)
	}
	count := 0
	for i := 0; i < win; i++ {
		if lost[i] {
			count++
		}
	}
	worst := count
	for i := win; i < len(lost); i++ {
		if lost[i] {
			count++
		}
		if lost[i-win] {
			count--
		}
		if count > worst {
			worst = count
		}
	}
	return float64(worst) / float64(win)
}

// LossRate returns the fraction of true values in the sequence.
func LossRate(lost []bool) float64 {
	if len(lost) == 0 {
		return 0
	}
	n := 0
	for _, l := range lost {
		if l {
			n++
		}
	}
	return float64(n) / float64(len(lost))
}

// BoolsToFloats converts a loss sequence to a 0/1 series for correlation.
func BoolsToFloats(lost []bool) []float64 {
	out := make([]float64, len(lost))
	for i, l := range lost {
		if l {
			out[i] = 1
		}
	}
	return out
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !approx(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice mean should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {90, 9.1}, {10, 1.9},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !approx(got, cse.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if c.Min() != 1 || c.Max() != 3 {
		t.Errorf("Min/Max = %v/%v", c.Min(), c.Max())
	}
	if !approx(c.Mean(), 2, 1e-12) {
		t.Errorf("Mean = %v", c.Mean())
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].X != 0 || pts[10].X != 10 {
		t.Errorf("endpoints %v..%v", pts[0].X, pts[10].X)
	}
	if pts[10].Y != 1 {
		t.Errorf("final CDF value %v, want 1", pts[10].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF points not monotone")
		}
	}
	if got := NewCDF(nil).Points(5); got != nil {
		t.Error("empty CDF should yield nil points")
	}
	one := NewCDF([]float64{7, 7}).Points(5)
	if len(one) != 1 || one[0].Y != 1 {
		t.Errorf("degenerate CDF points = %v", one)
	}
}

func TestCDFPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return c.Percentile(pa) <= c.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if r := CrossCorrelation(a, b); !approx(r, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", r)
	}
	c := []float64{5, 4, 3, 2, 1}
	if r := CrossCorrelation(a, c); !approx(r, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	if r := CrossCorrelation(a, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Errorf("constant series correlation = %v, want 0", r)
	}
	if CrossCorrelation(a[:1], b[:1]) != 0 {
		t.Error("short series should be 0")
	}
}

func TestAutoCorrelation(t *testing.T) {
	// Alternating series has autocorrelation -1 at lag 1, +1 at lag 2.
	xs := []float64{1, 0, 1, 0, 1, 0, 1, 0}
	if r := AutoCorrelation(xs, 1); !approx(r, -1, 1e-9) {
		t.Errorf("lag-1 = %v, want -1", r)
	}
	if r := AutoCorrelation(xs, 2); !approx(r, 1, 1e-9) {
		t.Errorf("lag-2 = %v, want 1", r)
	}
	if AutoCorrelation(xs, 100) != 0 {
		t.Error("over-long lag should be 0")
	}
	if AutoCorrelation(xs, -1) != 0 {
		t.Error("negative lag should be 0")
	}
}

func TestBurstHistogram(t *testing.T) {
	// Sequence: burst of 2, isolated, burst of 3, trailing burst of 1.
	seq := []bool{true, true, false, true, false, true, true, true, false, true}
	h := NewBurstHistogram(seq, 10)
	if h.Counts[0] != 2 { // two bursts of length 1
		t.Errorf("len-1 bursts = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 1 {
		t.Errorf("len-2 bursts = %d, want 1", h.Counts[1])
	}
	if h.Counts[2] != 1 {
		t.Errorf("len-3 bursts = %d, want 1", h.Counts[2])
	}
	if h.TotalLost() != 7 {
		t.Errorf("TotalLost = %d, want 7", h.TotalLost())
	}
	if h.LostInBursts() != 5 {
		t.Errorf("LostInBursts = %d, want 5", h.LostInBursts())
	}
}

func TestBurstHistogramOverflow(t *testing.T) {
	seq := make([]bool, 15)
	for i := range seq {
		seq[i] = true
	}
	h := NewBurstHistogram(seq, 10)
	if h.Overflow != 1 {
		t.Errorf("Overflow = %d, want 1", h.Overflow)
	}
	avg := h.AverageCounts(1)
	if len(avg) != 11 {
		t.Fatalf("AverageCounts len = %d, want 11", len(avg))
	}
	if avg[10] != 1 {
		t.Errorf("overflow bucket avg = %v, want 1", avg[10])
	}
}

func TestBurstHistogramMerge(t *testing.T) {
	a := NewBurstHistogram([]bool{true, false, true, true}, 10)
	b := NewBurstHistogram([]bool{true}, 10)
	a.Merge(b)
	if a.Counts[0] != 2 || a.Counts[1] != 1 {
		t.Errorf("merged counts = %v", a.Counts)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched-cap merge did not panic")
		}
	}()
	a.Merge(NewBurstHistogram(nil, 5))
}

func TestBurstConservationProperty(t *testing.T) {
	// Property: with a cap at least as long as the sequence, the histogram
	// accounts for every lost packet exactly.
	f := func(pattern []bool) bool {
		if len(pattern) == 0 {
			return true
		}
		h := NewBurstHistogram(pattern, len(pattern))
		lost := 0
		for _, l := range pattern {
			if l {
				lost++
			}
		}
		return h.TotalLost() == lost && h.Overflow == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorstWindowRate(t *testing.T) {
	seq := []bool{false, false, true, true, true, false, false, false}
	if r := WorstWindowRate(seq, 3); !approx(r, 1, 1e-12) {
		t.Errorf("worst rate = %v, want 1", r)
	}
	if r := WorstWindowRate(seq, 4); !approx(r, 0.75, 1e-12) {
		t.Errorf("worst rate(4) = %v, want 0.75", r)
	}
	// Window longer than sequence: whole-sequence rate.
	if r := WorstWindowRate(seq, 100); !approx(r, 3.0/8, 1e-12) {
		t.Errorf("long-window rate = %v", r)
	}
	if WorstWindowRate(nil, 5) != 0 {
		t.Error("empty sequence should be 0")
	}
}

func TestWorstWindowBoundsProperty(t *testing.T) {
	// Properties: 0 <= worst-window rate <= 1; a full-length window equals
	// the overall loss rate; and a size-1 window is 1 iff any loss occurred.
	f := func(pattern []bool, winRaw uint8) bool {
		win := int(winRaw)%20 + 1
		w := WorstWindowRate(pattern, win)
		if w < 0 || w > 1 {
			return false
		}
		if len(pattern) > 0 {
			if !approx(WorstWindowRate(pattern, len(pattern)), LossRate(pattern), 1e-12) {
				return false
			}
			anyLoss := LossRate(pattern) > 0
			w1 := WorstWindowRate(pattern, 1)
			if anyLoss && w1 != 1 {
				return false
			}
			if !anyLoss && w1 != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLossRateAndConversion(t *testing.T) {
	seq := []bool{true, false, true, false}
	if r := LossRate(seq); !approx(r, 0.5, 1e-12) {
		t.Errorf("LossRate = %v", r)
	}
	fs := BoolsToFloats(seq)
	want := []float64{1, 0, 1, 0}
	for i := range want {
		if fs[i] != want[i] {
			t.Fatalf("BoolsToFloats = %v", fs)
		}
	}
}

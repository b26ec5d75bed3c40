package voip

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

const spacing = 20 * sim.Millisecond

// mkTrace builds an n-packet G.711 call trace with the given loss pattern
// and constant delivery delay.
func mkTrace(n int, lossPattern []bool, delay sim.Duration) *trace.Trace {
	tr := trace.New(n, 0, spacing)
	for i := 0; i < n; i++ {
		sent := sim.Time(i) * sim.Time(spacing)
		if i < len(lossPattern) && lossPattern[i] {
			continue
		}
		tr.RecordArrival(i, sent.Add(delay))
	}
	return tr
}

func TestPerfectCall(t *testing.T) {
	q := Assess(mkTrace(6000, nil, 10*sim.Millisecond), traffic.G711)
	if q.LossRate != 0 {
		t.Errorf("loss = %v", q.LossRate)
	}
	if q.Poor {
		t.Error("perfect call rated poor")
	}
	if q.MOS < 4.0 {
		t.Errorf("perfect-call MOS = %v, want >= 4", q.MOS)
	}
}

func TestHeavyLossCallIsPoor(t *testing.T) {
	loss := make([]bool, 6000)
	for i := range loss {
		if i%3 != 0 { // 67% loss
			loss[i] = true
		}
	}
	q := Assess(mkTrace(6000, loss, 10*sim.Millisecond), traffic.G711)
	if !q.Poor {
		t.Errorf("67%%-loss call not poor (MOS %v)", q.MOS)
	}
	if q.MOS > 2 {
		t.Errorf("67%%-loss MOS = %v", q.MOS)
	}
}

func TestBurstsHurtMoreThanIsolatedLoss(t *testing.T) {
	// Same loss count: one long burst vs evenly spread isolated losses.
	burst := make([]bool, 6000)
	for i := 1000; i < 1120; i++ { // 120-packet burst = 2.4s outage
		burst[i] = true
	}
	spread := make([]bool, 6000)
	for i := 0; i < 120; i++ {
		spread[i*50] = true
	}
	qBurst := Assess(mkTrace(6000, burst, 10*sim.Millisecond), traffic.G711)
	qSpread := Assess(mkTrace(6000, spread, 10*sim.Millisecond), traffic.G711)
	if qBurst.MOS >= qSpread.MOS {
		t.Errorf("burst MOS %v not below spread MOS %v", qBurst.MOS, qSpread.MOS)
	}
}

// TestBurstRatioMatchesHistogram checks BurstR from the one pass's loss
// and burst counts against the burst-histogram formulation, bit for bit.
func TestBurstRatioMatchesHistogram(t *testing.T) {
	ref := func(lost []bool, p float64) float64 {
		if p <= 0 || p >= 1 {
			return 1
		}
		h := stats.NewBurstHistogram(lost, len(lost))
		bursts, lostTotal := 0, 0
		for i, c := range h.Counts {
			bursts += c
			lostTotal += (i + 1) * c
		}
		if bursts == 0 {
			return 1
		}
		meanBurst := float64(lostTotal) / float64(bursts)
		br := meanBurst / (1 / (1 - p))
		if br < 1 {
			br = 1
		}
		return br
	}
	f := func(lost []bool) bool {
		s := mkTrace(len(lost), lost, 10*sim.Millisecond).Summarize(traffic.G711.Deadline, WorstWindow)
		p := stats.LossRate(lost)
		return s.LossRate() == p && burstRatio(s.Lost, s.Bursts, p) == ref(lost, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestConcealmentClassification(t *testing.T) {
	// isolated, isolated, then a 3-burst: 2 interpolated + (1 interp + 2 extrap).
	pattern := []bool{false, true, false, true, false, true, true, true, false, false}
	q := Assess(mkTrace(10, pattern, 5*sim.Millisecond), traffic.G711)
	if q.Interpolated != 3 {
		t.Errorf("interpolated = %d, want 3", q.Interpolated)
	}
	if q.Extrapolated != 2 {
		t.Errorf("extrapolated = %d, want 2", q.Extrapolated)
	}
}

func TestLateArrivalCountsAsLoss(t *testing.T) {
	q := Assess(mkTrace(500, nil, 300*sim.Millisecond), traffic.G711)
	if q.LossRate != 1 {
		t.Errorf("all-late call loss = %v, want 1", q.LossRate)
	}
}

func TestWorstWindowDominates(t *testing.T) {
	// A clean call except one terrible 5-second window.
	pattern := make([]bool, 6000)
	for i := 2000; i < 2250; i += 2 { // 50% loss for 5s
		pattern[i] = true
	}
	q := Assess(mkTrace(6000, pattern, 10*sim.Millisecond), traffic.G711)
	if q.WorstWindowLoss < 0.4 {
		t.Errorf("worst window loss = %v, want ~0.5", q.WorstWindowLoss)
	}
	if q.LossRate > 0.03 {
		t.Errorf("overall loss = %v, want ~0.02", q.LossRate)
	}
	// The bad window should drag the rating down relative to a call with
	// the same overall loss spread evenly.
	even := make([]bool, 6000)
	for i := 0; i < 125; i++ {
		even[i*48] = true
	}
	qEven := Assess(mkTrace(6000, even, 10*sim.Millisecond), traffic.G711)
	if q.MOS >= qEven.MOS {
		t.Errorf("concentrated-loss MOS %v not below even-loss MOS %v", q.MOS, qEven.MOS)
	}
}

func TestMOSFromRBounds(t *testing.T) {
	if m := MOSFromR(-5); m != 1 {
		t.Errorf("MOS(R<0) = %v", m)
	}
	if m := MOSFromR(150); m != 4.5 {
		t.Errorf("MOS(R>100) = %v", m)
	}
	// The ITU G.107 cubic is famously non-monotone below R≈22; check
	// monotonicity over the range that matters for call rating.
	prev := MOSFromR(25)
	for r := 26.0; r <= 100; r++ {
		cur := MOSFromR(r)
		if cur < prev-1e-9 {
			t.Fatalf("MOS not monotone at R=%v", r)
		}
		prev = cur
	}
	// Classic anchor: R=93.2 ≈ MOS 4.4.
	if m := MOSFromR(93.2); m < 4.3 || m > 4.5 {
		t.Errorf("MOS(93.2) = %v, want ≈4.4", m)
	}
}

func TestPCR(t *testing.T) {
	calls := []Quality{{Poor: true}, {Poor: false}, {Poor: false}, {Poor: true}}
	if p := PCR(calls); p != 0.5 {
		t.Errorf("PCR = %v", p)
	}
	if PCR(nil) != 0 {
		t.Error("empty PCR should be 0")
	}
}

func TestMOSMonotoneInLoss(t *testing.T) {
	// More loss must never raise MOS.
	prev := 5.0
	for _, rate := range []int{0, 50, 25, 10, 5, 3, 2} { // every rate-th packet lost
		pattern := make([]bool, 6000)
		lossFrac := 0.0
		if rate > 0 {
			for i := 0; i < 6000; i += rate {
				pattern[i] = true
			}
			lossFrac = 1 / float64(rate)
		}
		_ = lossFrac
		q := Assess(mkTrace(6000, pattern, 10*sim.Millisecond), traffic.G711)
		if q.MOS > prev+1e-9 {
			t.Fatalf("MOS rose with loss: %v after %v", q.MOS, prev)
		}
		prev = q.MOS
	}
}

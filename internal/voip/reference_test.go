package voip

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// refAssess is the slice-based Assess the one-pass summary replaced: it
// builds the deadline-aware loss sequence and scans it once per statistic,
// with delay and jitter taken from the trace's arrival and send times. It
// is kept as the reference Assess and AssessMerged must match bit for bit.
func refAssess(tr *trace.Trace, profile traffic.Profile) Quality {
	lost := tr.LostWithDeadline(profile.Deadline)
	var q Quality
	q.LossRate = stats.LossRate(lost)
	q.WorstWindowLoss = stats.WorstWindowRate(lost, tr.WindowPackets(WorstWindow))
	q.JitterMs = refJitter(tr)
	q.MeanDelayMs = refMeanDelayMs(tr)
	q.Interpolated, q.Extrapolated = refConcealment(lost)

	overallR := RFromLoss(q.LossRate, refBurstRatio(lost, q.LossRate), q.MeanDelayMs)
	worstR := RFromLoss(q.WorstWindowLoss, refBurstRatio(lost, q.WorstWindowLoss), q.MeanDelayMs)
	q.RFactor = (1-WorstWeight)*overallR + WorstWeight*worstR
	q.MOS = MOSFromR(q.RFactor)
	q.Poor = q.MOS < PoorMOSThreshold
	return q
}

func refDelay(tr *trace.Trace, seq int) sim.Duration {
	return tr.ArrivalTime(seq).Sub(tr.SentTime(seq))
}

func refMeanDelayMs(tr *trace.Trace) float64 {
	sum, n := 0.0, 0
	for seq := 0; seq < tr.Len(); seq++ {
		if tr.Arrived(seq) {
			sum += refDelay(tr, seq).Milliseconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func refJitter(tr *trace.Trace) float64 {
	var j float64
	prev := -1
	for seq := 0; seq < tr.Len(); seq++ {
		if !tr.Arrived(seq) {
			continue
		}
		if prev >= 0 {
			dTransit := (refDelay(tr, seq) - refDelay(tr, prev)).Milliseconds()
			j += (math.Abs(dTransit) - j) / 16
		}
		prev = seq
	}
	return j
}

func refConcealment(lost []bool) (interpolated, extrapolated int) {
	for i, l := range lost {
		if !l {
			continue
		}
		if i > 0 && lost[i-1] {
			extrapolated++
		} else {
			interpolated++
		}
	}
	return interpolated, extrapolated
}

func refBurstRatio(lost []bool, p float64) float64 {
	if p <= 0 || p >= 1 {
		return 1
	}
	bursts, lostTotal := 0, 0
	for i, l := range lost {
		if !l {
			continue
		}
		lostTotal++
		if i == 0 || !lost[i-1] {
			bursts++
		}
	}
	if bursts == 0 {
		return 1
	}
	meanBurst := float64(lostTotal) / float64(bursts)
	expected := 1 / (1 - p)
	br := meanBurst / expected
	if br < 1 {
		br = 1
	}
	return br
}

// sameQuality reports whether every field of got equals want's, floats
// compared bit for bit.
func sameQuality(t *testing.T, what string, got, want Quality) bool {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		gf, wf := g.Field(i), w.Field(i)
		same := gf.Interface() == wf.Interface()
		if gf.Kind() == reflect.Float64 {
			same = math.Float64bits(gf.Float()) == math.Float64bits(wf.Float())
		}
		if !same {
			t.Errorf("%s: %s = %v, reference %v", what, g.Type().Field(i).Name, gf.Interface(), wf.Interface())
			return false
		}
	}
	return true
}

// spacings includes 0 (a one-packet window) and spacings whose 5 s window
// is longer than most generated calls.
var spacings = []sim.Duration{0, sim.Millisecond, 10 * sim.Millisecond, 20 * sim.Millisecond, 33 * sim.Millisecond}

// genTrace draws an n-packet trace from r. Each packet is never delivered,
// delivered within deadline, or delivered late; a packet repeats the
// previous one's class with a per-trace probability, so losses come in
// bursts of every length, and whole calls can be lost or late. Some
// packets are delivered again, earlier or later (duplicates).
func genTrace(r *rand.Rand, n int, start sim.Time, sp, deadline sim.Duration) *trace.Trace {
	tr := trace.New(n, start, sp)
	wLost, wLate, stick, dup := r.Float64(), r.Float64(), r.Float64(), r.Float64()/4
	delay := func(late bool) sim.Duration {
		switch {
		case r.Intn(50) == 0:
			return math.MaxInt32
		case late:
			return deadline + 1 + sim.Duration(r.Int63n(int64(500*sim.Millisecond)))
		default:
			return sim.Duration(r.Int63n(int64(deadline) + 1))
		}
	}
	class := 0
	for seq := 0; seq < n; seq++ {
		if seq == 0 || r.Float64() >= stick {
			switch u := r.Float64() * (1 + wLost + wLate); {
			case u < wLost:
				class = 0
			case u < wLost+wLate:
				class = 1
			default:
				class = 2
			}
		}
		if class == 0 {
			continue
		}
		tr.RecordArrival(seq, tr.SentTime(seq).Add(delay(class == 1)))
		if r.Float64() < dup {
			tr.RecordArrival(seq, tr.SentTime(seq).Add(delay(r.Intn(2) == 0)))
		}
	}
	return tr
}

// genCall draws a profile and a pair of traces on one schedule, of
// lengths up to 700 packets (a G.711 worst window is 250).
func genCall(seed int64) (a, b *trace.Trace, profile traffic.Profile) {
	r := rand.New(rand.NewSource(seed))
	profile = traffic.G711
	profile.Deadline = sim.Duration(r.Int63n(int64(300 * sim.Millisecond)))
	start, sp := sim.Time(r.Intn(1000)), spacings[r.Intn(len(spacings))]
	a = genTrace(r, r.Intn(701), start, sp, profile.Deadline)
	b = genTrace(r, r.Intn(701), start, sp, profile.Deadline)
	return a, b, profile
}

// TestAssessMatchesReference holds Assess to refAssess on random calls and
// on the edge cases: an empty call, one lost or late throughout, a call
// shorter than the worst window, and duplicate deliveries.
func TestAssessMatchesReference(t *testing.T) {
	late := mkTrace(300, nil, 101*sim.Millisecond)
	dups := mkTrace(600, []bool{true, false, true, true}, 10*sim.Millisecond)
	for seq := 1; seq < 600; seq += 3 {
		dups.RecordArrival(seq, dups.SentTime(seq).Add(sim.Duration(seq)*sim.Millisecond))
	}
	cases := []struct {
		name string
		tr   *trace.Trace
	}{
		{"empty", trace.New(0, 0, spacing)},
		{"all lost", trace.New(300, 0, spacing)},
		{"all late", late},
		{"shorter than the window", mkTrace(100, []bool{false, true, true, false, true}, 10*sim.Millisecond)},
		{"duplicates", dups},
	}
	for _, c := range cases {
		sameQuality(t, c.name, Assess(c.tr, traffic.G711), refAssess(c.tr, traffic.G711))
	}
	if q := Assess(late, traffic.G711); q.LossRate != 1 || q.MeanDelayMs != 101 {
		t.Errorf("all-late call: loss %v, mean delay %v ms; want 1 and 101", q.LossRate, q.MeanDelayMs)
	}

	f := func(seed int64) bool {
		a, _, profile := genCall(seed)
		return sameQuality(t, "random call", Assess(a, profile), refAssess(a, profile))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestAssessMergedMatchesMerge holds AssessMerged(a, b) to
// Assess(trace.Merge(a, b)), traces of different lengths included, and
// checks that traces on different schedules still panic.
func TestAssessMergedMatchesMerge(t *testing.T) {
	f := func(seed int64) bool {
		a, b, profile := genCall(seed)
		return sameQuality(t, "merge(a, b)", AssessMerged(a, b, profile), Assess(trace.Merge(a, b), profile)) &&
			sameQuality(t, "merge(b, a)", AssessMerged(b, a, profile), Assess(trace.Merge(b, a), profile))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}

	for name, b := range map[string]*trace.Trace{
		"different start":   trace.New(2, 1, spacing),
		"different spacing": trace.New(2, 0, 2*spacing),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			AssessMerged(trace.New(2, 0, spacing), b, traffic.G711)
		})
	}
}

package holdbuf

import (
	"slices"
	"testing"
)

type op byte

const (
	offer op = iota
	start
	stop
)

// step is one input to a Stream[int64] whose packets are their own
// sequence numbers: an offer of seq, a start from seq, or a stop. want
// lists the packets the step releases.
type step struct {
	op   op
	seq  int64
	want []int64
}

func TestStream(t *testing.T) {
	offers := func(seqs ...int64) []step {
		var s []step
		for _, q := range seqs {
			s = append(s, step{op: offer, seq: q})
		}
		return s
	}
	cat := func(parts ...[]step) []step { return slices.Concat(parts...) }
	cases := []struct {
		name                string
		depth               int
		steps               []step
		sent, dropped, held int
	}{
		{"stopped stream holds", 5, offers(0, 1, 2), 0, 0, 3},
		{"default depth is 5", 0, offers(0, 1, 2, 3, 4, 5, 6), 0, 2, 5},
		{"head drop keeps the newest", 4, cat(offers(0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
			[]step{{op: start, seq: -1, want: []int64{6, 7, 8, 9}}}), 4, 6, 0},
		{"explicit selection skips held packets below fromSeq", 5, cat(offers(0, 1, 2, 3, 4),
			[]step{{op: start, seq: 3, want: []int64{3, 4}}}), 2, 0, 0},
		{"started stream forwards from fromSeq only", 5, []step{
			{op: start, seq: 5},
			{op: offer, seq: 4},
			{op: offer, seq: 5, want: []int64{5}},
			{op: offer, seq: 7, want: []int64{7}},
		}, 2, 0, 0},
		{"START on a started stream moves fromSeq", 5, []step{
			{op: start, seq: -1},
			{op: offer, seq: 3, want: []int64{3}},
			{op: start, seq: 10},
			{op: offer, seq: 9},
			{op: offer, seq: 10, want: []int64{10}},
		}, 2, 0, 0},
		{"stop holds again until the next start", 3, []step{
			{op: start, seq: -1},
			{op: offer, seq: 100, want: []int64{100}},
			{op: stop},
			{op: offer, seq: 101},
			{op: offer, seq: 102},
			{op: stop},
			{op: start, seq: -1, want: []int64{101, 102}},
		}, 3, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New[int64](c.depth)
			for i, st := range c.steps {
				var got []int64
				switch st.op {
				case offer:
					if s.Offer(st.seq, st.seq) {
						got = append(got, st.seq)
					}
				case start:
					s.Start(st.seq, func(p int64) { got = append(got, p) })
				case stop:
					s.Stop()
				}
				if !slices.Equal(got, st.want) {
					t.Fatalf("step %d (%+v) released %v, want %v", i, st, got, st.want)
				}
			}
			if sent, dropped, held := s.Counts(); sent != c.sent || dropped != c.dropped || held != c.held {
				t.Errorf("counts = %d/%d/%d, want %d/%d/%d", sent, dropped, held, c.sent, c.dropped, c.held)
			}
		})
	}
}

// FuzzHoldMatchesReference drives a Stream and refStream with the same
// ops and checks, after every op, that they release the same packets and
// report the same counts, that no packet is released twice or below the
// active fromSeq, and that at most depth packets are held.
//
// The first byte sets the depth (1–8). Then each byte pair (op, arg) is an
// offer of seq arg (op%3 == 0), a start from seq arg&0x7f, or from −1 when
// arg&0x80 is set (op%3 == 1), or a stop.
func FuzzHoldMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 1, 0x80})                   // head drop, full flush
	f.Add([]byte{4, 0, 5, 0, 6, 0, 7, 1, 6, 0, 3})                // explicit fetch, stale fresh packet
	f.Add([]byte{0, 1, 9, 0, 8, 0, 9, 1, 12, 0, 11})              // START on a started stream
	f.Add([]byte{7, 0, 1, 1, 0x80, 2, 0, 0, 2, 2, 0, 0, 3, 1, 2}) // stop twice, restart
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		depth := 1 + int(data[0]%8)
		s := New[int](depth)
		ref := &refStream{depth: depth, fromSeq: -1}
		seqOf := map[int]uint32{} // packet id → seq
		released := map[int]bool{}
		fromSeq := int64(-1) // of the latest start
		release := func(ids []int) {
			for _, id := range ids {
				if released[id] {
					t.Fatalf("packet %d released twice", id)
				}
				released[id] = true
				if fromSeq >= 0 && int64(seqOf[id]) < fromSeq {
					t.Fatalf("packet %d (seq %d) released below fromSeq %d", id, seqOf[id], fromSeq)
				}
			}
		}
		for i := 1; i+1 < len(data); i += 2 {
			arg := data[i+1]
			var got, want []int
			switch data[i] % 3 {
			case 0:
				id, seq := i, uint32(arg)
				seqOf[id] = seq
				if s.Offer(int64(seq), id) {
					got = append(got, id)
				}
				if ref.offer(seq, id) {
					want = append(want, id)
				}
			case 1:
				fromSeq = int64(arg & 0x7f)
				if arg&0x80 != 0 {
					fromSeq = -1
				}
				s.Start(fromSeq, func(id int) { got = append(got, id) })
				want = ref.start(fromSeq)
			default:
				s.Stop()
				ref.stop()
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: released %v, reference %v", i, got, want)
			}
			release(got)
			sent, dropped, held := s.Counts()
			if sent != ref.sent || dropped != ref.dropped || held != len(ref.buf) {
				t.Fatalf("op %d: counts %d/%d/%d, reference %d/%d/%d",
					i, sent, dropped, held, ref.sent, ref.dropped, len(ref.buf))
			}
			if held > depth {
				t.Fatalf("op %d: %d held, depth %d", i, held, depth)
			}
		}
	})
}

// Package holdbuf is DiversiFi's network-side hold buffer (§5.3): the
// per-stream start/stop state machine behind both the customized AP's PSM
// head-drop queue and the middlebox's buffer. It has no clock, sockets or
// locks; the simulated and the live adapters add those.
package holdbuf

import "repro/internal/pkt"

// DefaultDepth is the buffer depth used when none is set: 5 packets, the
// Deadline/Spacing of G.711.
const DefaultDepth = 5

type entry[P any] struct {
	seq int64
	p   P
}

// Stream holds one stream's freshest packets while it is stopped and
// forwards them once started.
//
// A stopped stream keeps the newest depth packets, evicting the oldest. A
// started stream holds nothing: it forwards every packet with seq ≥ the
// fromSeq of its latest Start and drops the others. Sequence numbers are
// non-negative, so a negative fromSeq selects every packet.
type Stream[P any] struct {
	depth   int
	buf     pkt.Ring[entry[P]]
	started bool
	fromSeq int64

	sent, dropped int
}

// New returns a stopped, empty stream that holds up to depth packets
// (DefaultDepth when depth ≤ 0).
func New[P any](depth int) *Stream[P] {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Stream[P]{depth: depth}
}

// Offer takes packet p with sequence number seq and reports whether the
// caller should forward it now. Otherwise the packet is held (stopped
// stream) or dropped (started stream, seq below fromSeq).
func (s *Stream[P]) Offer(seq int64, p P) (forward bool) {
	if s.started {
		if seq < s.fromSeq {
			return false
		}
		s.sent++
		return true
	}
	if s.buf.Len() >= s.depth {
		s.buf.Pop()
		s.dropped++
	}
	s.buf.Push(entry[P]{seq, p})
	return false
}

// Start starts the stream from fromSeq: it passes every held packet with
// seq ≥ fromSeq to emit, oldest first, discards the rest, and forwards
// later offers from fromSeq on. Starting a started stream only moves fromSeq.
func (s *Stream[P]) Start(fromSeq int64, emit func(P)) {
	s.started = true
	s.fromSeq = fromSeq
	for s.buf.Len() > 0 {
		if h := s.buf.Pop(); h.seq >= fromSeq {
			s.sent++
			emit(h.p)
		}
	}
}

// Stop stops the stream: later offers are held again.
func (s *Stream[P]) Stop() { s.started = false }

// Started reports whether the stream is started. A started stream keeps
// nothing Offer is given; a stopped one may hold it until a later Start.
func (s *Stream[P]) Started() bool { return s.started }

// Counts returns the packets forwarded or emitted so far, the packets
// evicted by head drop, and the packets held now.
func (s *Stream[P]) Counts() (sent, dropped, held int) {
	return s.sent, s.dropped, s.buf.Len()
}

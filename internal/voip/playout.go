package voip

import (
	"repro/internal/sim"
	"repro/internal/traffic"
)

// FrameStatus is the playout outcome of one audio frame.
type FrameStatus int

const (
	// FramePlayed means the packet arrived in time and was decoded.
	FramePlayed FrameStatus = iota
	// FrameInterpolated means the packet was missing but both neighbours
	// were available: the decoder conceals it by interpolation.
	FrameInterpolated
	// FrameExtrapolated means the packet and its predecessor were
	// missing: the decoder can only extrapolate, degrading quickly.
	FrameExtrapolated
)

func (s FrameStatus) String() string {
	switch s {
	case FramePlayed:
		return "played"
	case FrameInterpolated:
		return "interpolated"
	case FrameExtrapolated:
		return "extrapolated"
	default:
		return "unknown"
	}
}

// Frame is one playout event delivered to the application.
type Frame struct {
	Seq      int
	Status   FrameStatus
	PlayAt   sim.Time
	Lateness sim.Duration // how close the packet cut it (0 if concealed)
}

// Playout is the §5.4 application-facing delivery surface: packets go in
// as they arrive from the network (in any order, possibly duplicated), and
// frames come out in strict sequence order at their playout deadlines,
// with concealment applied for anything that missed its slot. It is
// driven by the same virtual clock as the rest of the simulation.
type Playout struct {
	sim     *sim.Simulator
	profile traffic.Profile
	delay   sim.Duration
	start   sim.Time
	deliver func(Frame)

	arrived  map[int]sim.Time
	emitted  int
	prevLost bool

	stats PlayoutStats
}

// PlayoutStats summarises a session.
type PlayoutStats struct {
	Played       int
	Interpolated int
	Extrapolated int
}

// NewPlayout creates a playout session for a stream that starts at the
// current virtual time. delay is the jitter-buffer depth (0 selects the
// package default); frames are handed to deliver in order.
func NewPlayout(s *sim.Simulator, profile traffic.Profile, delay sim.Duration, count int, deliver func(Frame)) *Playout {
	if delay <= 0 {
		delay = PlayoutDelay
	}
	p := &Playout{
		sim:     s,
		profile: profile,
		delay:   delay,
		start:   s.Now(),
		deliver: deliver,
		arrived: make(map[int]sim.Time),
	}
	s.Train(count, sim.Lane{At: p.playTime, Fn: p.emit})
	return p
}

// playTime returns seq's playout deadline.
func (p *Playout) playTime(seq int) sim.Time {
	return p.start.Add(sim.Duration(seq)*p.profile.Spacing + p.delay)
}

// Receive hands the playout a packet that arrived from the network at the
// current virtual time. Late and duplicate packets are tolerated.
func (p *Playout) Receive(seq int) {
	if _, dup := p.arrived[seq]; dup {
		return
	}
	p.arrived[seq] = p.sim.Now()
}

// emit plays or conceals seq at its deadline.
func (p *Playout) emit(seq int) {
	at, ok := p.arrived[seq]
	f := Frame{Seq: seq, PlayAt: p.sim.Now()}
	if ok && at <= p.sim.Now() {
		f.Status = FramePlayed
		f.Lateness = p.sim.Now().Sub(at)
		p.stats.Played++
		p.prevLost = false
	} else {
		if p.prevLost {
			f.Status = FrameExtrapolated
			p.stats.Extrapolated++
		} else {
			f.Status = FrameInterpolated
			p.stats.Interpolated++
		}
		p.prevLost = true
	}
	p.emitted++
	if p.deliver != nil {
		p.deliver(f)
	}
}

// Stats returns the session counters.
func (p *Playout) Stats() PlayoutStats { return p.stats }

// Emitted returns the number of frames handed to the application so far.
func (p *Playout) Emitted() int { return p.emitted }

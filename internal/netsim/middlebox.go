package netsim

import (
	"fmt"

	"repro/internal/holdbuf"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// MiddleboxConfig parameterises the buffering middlebox of §5.3.2. The
// default delay components reproduce Table 3: retrieving a packet through
// the middlebox costs ~2 ms of network traversal plus ~0.9 ms of queuing
// on top of the client's 2.3 ms channel switch.
type MiddleboxConfig struct {
	BufferDepth int          // per-stream head-drop buffer (packets)
	BaseQueuing sim.Duration // request-processing delay at zero load
	NetDelay    sim.Duration // network path: client request + packet out
	// LoadFactor is the extra queuing delay added per 1000 concurrently
	// served streams; §6.4 measures ≈1.1 ms at 1000 streams.
	LoadFactor sim.Duration
}

// DefaultMiddleboxConfig returns the Table 3 calibration.
func DefaultMiddleboxConfig() MiddleboxConfig {
	return MiddleboxConfig{
		BufferDepth: holdbuf.DefaultDepth,
		BaseQueuing: 900 * sim.Microsecond,
		NetDelay:    2 * sim.Millisecond,
		LoadFactor:  1100 * sim.Microsecond,
	}
}

// mbStream is the middlebox's per-stream state.
type mbStream struct {
	hold *holdbuf.Stream[pkt.Packet]
	out  func(pkt.Packet)
}

// Middlebox is the simulated deployment of the holdbuf start/stop buffer:
// it holds replicated real-time packets per stream and releases them
// toward the client's secondary AP on request, adding the Table 3 network
// and service delays to every request. Start may carry a from-sequence for
// explicit packet selection.
type Middlebox struct {
	sim     *sim.Simulator
	cfg     MiddleboxConfig
	streams map[int]*mbStream

	// backgroundLoad emulates additional concurrent streams served by the
	// same box, for the §6.4 scalability experiment.
	backgroundLoad int
}

// NewMiddlebox creates a middlebox on the simulator.
func NewMiddlebox(s *sim.Simulator, cfg MiddleboxConfig) *Middlebox {
	return &Middlebox{sim: s, cfg: cfg, streams: make(map[int]*mbStream)}
}

// Register prepares per-stream state: replicated copies of streamID will be
// buffered, and released toward out when the client asks.
func (m *Middlebox) Register(streamID int, out Port) error {
	if out == nil {
		return fmt.Errorf("netsim: middlebox stream %d registered with nil output", streamID)
	}
	m.streams[streamID] = &mbStream{hold: holdbuf.New[pkt.Packet](m.cfg.BufferDepth), out: out.Receive}
	return nil
}

// SetBackgroundLoad declares n additional concurrent streams for the
// scalability experiment; it only affects the service delay.
func (m *Middlebox) SetBackgroundLoad(n int) {
	if n < 0 {
		n = 0
	}
	m.backgroundLoad = n
}

// ServiceDelay returns the current request-processing delay: base queuing
// plus the load-proportional term.
func (m *Middlebox) ServiceDelay() sim.Duration {
	load := m.backgroundLoad + len(m.streams)
	return m.cfg.BaseQueuing + sim.Duration(int64(m.cfg.LoadFactor)*int64(load)/1000)
}

// BufferedCount returns the stream's current buffer occupancy.
func (m *Middlebox) BufferedCount(streamID int) int {
	if st, ok := m.streams[streamID]; ok {
		_, _, held := st.hold.Counts()
		return held
	}
	return 0
}

// Receive implements Port: the SDN switch feeds replicated copies here.
// Copies of unregistered streams are dropped.
func (m *Middlebox) Receive(p pkt.Packet) {
	if st, ok := m.streams[p.StreamID]; ok && st.hold.Offer(int64(p.Seq), p) {
		st.out(p)
	}
}

// Start is the client's request to begin delivery for streamID from
// fromSeq (negative: everything buffered, the paper's plain start/stop;
// see holdbuf.Stream.Start). Delivery begins after the network + service delay and continues until
// Stop. It returns the delay until the first buffered packet leaves, which
// Table 3 reports as network + queuing.
func (m *Middlebox) Start(streamID, fromSeq int) sim.Duration {
	st, ok := m.streams[streamID]
	if !ok {
		return 0
	}
	delay := m.cfg.NetDelay + m.ServiceDelay()
	m.sim.After(delay, func() { st.hold.Start(int64(fromSeq), st.out) })
	return delay
}

// Stop ends delivery for streamID after the control-message network delay;
// subsequent packets buffer again.
func (m *Middlebox) Stop(streamID int) {
	if st, ok := m.streams[streamID]; ok {
		m.sim.After(m.cfg.NetDelay/2, st.hold.Stop)
	}
}

// DroppedCount returns packets evicted from the stream's head-drop buffer.
func (m *Middlebox) DroppedCount(streamID int) int {
	if st, ok := m.streams[streamID]; ok {
		_, dropped, _ := st.hold.Counts()
		return dropped
	}
	return 0
}

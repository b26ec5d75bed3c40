package emu

import (
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"sync"

	"repro/internal/holdbuf"
)

// MiddleboxConfig sizes the live middlebox.
type MiddleboxConfig struct {
	// BufferDepth is the per-stream head-drop buffer (default
	// holdbuf.DefaultDepth, the Deadline/Spacing of G.711).
	BufferDepth int
}

// Middlebox is the live counterpart of the paper's Click middlebox: it
// receives replicated stream packets on a data socket, keeps each
// registered stream in a holdbuf start/stop buffer, and serves the textual
// control protocol on a control socket. While a stream is started,
// buffered and fresh packets flow to the registered client address.
type Middlebox struct {
	sock *sockets
	data *net.UDPConn
	ctrl *net.UDPConn
	cfg  MiddleboxConfig
	// implicit makes START ignore its fromSeq, as NewAPEmu's access point
	// can only flush its whole queue.
	implicit bool

	mu      sync.Mutex
	streams map[uint32]*mbStream
}

type mbStream struct {
	client netip.AddrPort
	hold   *holdbuf.Stream[[]byte] // marshalled packets
}

// NewMiddlebox starts a middlebox with data and control sockets on the
// given addresses (use "127.0.0.1:0" for ephemeral ports).
func NewMiddlebox(dataAddr, ctrlAddr string, cfg MiddleboxConfig) (*Middlebox, error) {
	return newMiddlebox(dataAddr, ctrlAddr, cfg, false)
}

// NewAPEmu starts the live counterpart of the paper's "Customized AP"
// (§5.3.1): a middlebox with the given head-drop depth (0 = default) whose
// START is the PSM wake and STOP the sleep. START ignores any fromSeq,
// because an AP can only do implicit selection; set
// ClientConfig.ImplicitSelection when pairing a Client with it.
func NewAPEmu(dataAddr, ctrlAddr string, depth int) (*Middlebox, error) {
	return newMiddlebox(dataAddr, ctrlAddr, MiddleboxConfig{BufferDepth: depth}, true)
}

func newMiddlebox(dataAddr, ctrlAddr string, cfg MiddleboxConfig, implicit bool) (*Middlebox, error) {
	m := &Middlebox{
		sock:     newSockets(),
		cfg:      cfg,
		implicit: implicit,
		streams:  make(map[uint32]*mbStream),
	}
	var err error
	if m.data, err = m.sock.listen(dataAddr); err != nil {
		return nil, err
	}
	if m.ctrl, err = m.sock.listen(ctrlAddr); err != nil {
		m.sock.close()
		return nil, err
	}
	m.sock.serve(m.data, 64*1024, m.onData)
	m.sock.serve(m.ctrl, 2048, func(b []byte, from netip.AddrPort) {
		reply := m.handleCommand(strings.TrimSpace(string(b)), from)
		_, _ = m.ctrl.WriteToUDPAddrPort([]byte(reply), from)
	})
	return m, nil
}

// DataAddr returns the address replicated stream copies should be sent to.
func (m *Middlebox) DataAddr() string { return m.data.LocalAddr().String() }

// CtrlAddr returns the control-protocol address.
func (m *Middlebox) CtrlAddr() string { return m.ctrl.LocalAddr().String() }

// Counts returns the packets sent to clients and the packets head-dropped,
// summed over the registered streams.
func (m *Middlebox) Counts() (sent, dropped int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.streams {
		s, d, _ := st.hold.Counts()
		sent, dropped = sent+s, dropped+d
	}
	return sent, dropped
}

// Close shuts the middlebox down.
func (m *Middlebox) Close() error { return m.sock.close() }

func (m *Middlebox) onData(b []byte, _ netip.AddrPort) {
	stream, seq, ok := DecodeStream(b)
	if !ok {
		return
	}
	m.mu.Lock()
	st := m.streams[stream]
	// Unregistered streams drop, as the paper's switch rule scopes
	// replication.
	if st == nil {
		m.mu.Unlock()
		return
	}
	p := b
	if !st.hold.Started() {
		p = append([]byte(nil), b...) // held past this call; serve reuses b
	}
	if !st.hold.Offer(int64(seq), p) {
		m.mu.Unlock()
		return
	}
	client := st.client
	m.mu.Unlock()
	_, _ = m.data.WriteToUDPAddrPort(b, client)
}

// handleCommand executes one control command and returns the reply.
func (m *Middlebox) handleCommand(cmd string, from netip.AddrPort) string {
	fields := strings.Fields(cmd)
	if len(fields) < 2 {
		return "ERR syntax"
	}
	stream64, err := strconv.ParseUint(fields[1], 10, 32)
	if err != nil {
		return "ERR stream"
	}
	stream := uint32(stream64)

	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.streams[stream]
	switch fields[0] {
	case CmdRegister:
		// REGISTER <stream> [client-addr]; default to the caller.
		client := unmap(from)
		if len(fields) >= 3 {
			if client, err = resolve(fields[2]); err != nil {
				return "ERR addr"
			}
		}
		m.streams[stream] = &mbStream{client: client, hold: holdbuf.New[[]byte](m.cfg.BufferDepth)}
		return "OK"
	case CmdStart:
		// START <stream> [fromSeq]; without one, flush everything.
		if st == nil {
			return "ERR unknown stream"
		}
		fromSeq := int64(-1)
		if len(fields) >= 3 && !m.implicit {
			if fromSeq, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
				return "ERR seq"
			}
		}
		st.hold.Start(fromSeq, func(b []byte) { _, _ = m.data.WriteToUDPAddrPort(b, st.client) })
		return "OK"
	case CmdStop:
		if st != nil {
			st.hold.Stop()
		}
		return "OK"
	case CmdStats:
		if st == nil {
			return "ERR unknown stream"
		}
		sent, dropped, held := st.hold.Counts()
		return fmt.Sprintf("OK sent=%d dropped=%d buffered=%d", sent, dropped, held)
	default:
		return "ERR command"
	}
}

package emu

import (
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/rtp"
)

// SenderConfig shapes the CBR stream (defaults follow the paper's G.711
// workload: 160-byte payloads every 20 ms).
type SenderConfig struct {
	Stream      uint32
	PayloadSize int
	Interval    time.Duration
	Count       int // total packets; 0 = until Close
	// UseRTP emits standard RFC 3550 RTP packets (payload type 0, SSRC =
	// Stream) instead of the compact DF framing.
	UseRTP bool
}

// Sender emits a G.711-like CBR stream toward one destination.
type Sender struct {
	sock *sockets
	conn *net.UDPConn
	dst  netip.AddrPort
	cfg  SenderConfig
	// payload and buf are the stream goroutine's own.
	payload, buf []byte

	mu   sync.Mutex
	sent int

	done chan struct{}
}

// NewSender starts the stream immediately.
func NewSender(dst string, cfg SenderConfig) (*Sender, error) {
	if cfg.PayloadSize <= 0 {
		cfg.PayloadSize = 160
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Millisecond
	}
	daddr, err := resolve(dst)
	if err != nil {
		return nil, err
	}
	s := &Sender{
		sock:    newSockets(),
		dst:     daddr,
		cfg:     cfg,
		payload: make([]byte, cfg.PayloadSize),
		done:    make(chan struct{}),
	}
	if s.conn, err = s.sock.listen(":0"); err != nil {
		return nil, err
	}
	s.sock.every(cfg.Interval, s.emit)
	return s, nil
}

// Sent returns the number of packets emitted so far.
func (s *Sender) Sent() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// Done is closed when the configured Count has been sent.
func (s *Sender) Done() <-chan struct{} { return s.done }

// Close stops the stream.
func (s *Sender) Close() error { return s.sock.close() }

// emit sends the next packet, and reports whether the stream goes on.
func (s *Sender) emit() bool {
	seq := uint32(s.Sent()) // only emit writes sent
	if s.cfg.UseRTP {
		rp := rtp.Packet{
			Header: rtp.Header{
				PayloadType: 0, // PCMU / G.711
				Sequence:    uint16(seq),
				Timestamp:   seq * 160,
				SSRC:        s.cfg.Stream,
			},
			Payload: s.payload,
		}
		var err error
		if s.buf, err = rp.Marshal(s.buf); err != nil {
			return false
		}
	} else {
		p := Packet{Stream: s.cfg.Stream, Seq: seq, SentAt: time.Now(), Payload: s.payload}
		s.buf = p.Marshal(s.buf)
	}
	_, _ = s.conn.WriteToUDPAddrPort(s.buf, s.dst)
	s.mu.Lock()
	s.sent++
	s.mu.Unlock()
	if s.cfg.Count > 0 && int(seq)+1 >= s.cfg.Count {
		close(s.done)
		return false
	}
	return true
}

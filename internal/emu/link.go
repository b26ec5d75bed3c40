package emu

import (
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/sim/rng"
)

// LinkConfig shapes the emulated WiFi link.
type LinkConfig struct {
	// Loss is the per-packet drop probability in the good state.
	Loss float64
	// Burst parameters: the link enters a bad episode with BurstEnter
	// probability per packet; while bad, packets drop with BurstLoss and
	// the episode ends with BurstExit probability per packet.
	BurstEnter float64
	BurstExit  float64
	BurstLoss  float64
	// Delay and Jitter shape per-packet forwarding latency.
	Delay  time.Duration
	Jitter time.Duration
	// Seed fixes the link's randomness (0 = time-based).
	Seed int64
}

// Link is a UDP forwarder that emulates a lossy, jittery WiFi hop: it
// listens on its own socket and relays each datagram to a fixed downstream
// address, dropping and delaying per the configured loss process.
type Link struct {
	sock *sockets
	conn *net.UDPConn
	dst  netip.AddrPort

	mu    sync.Mutex
	cfg   LinkConfig
	rng   *rng.Stream
	bad   bool
	stats LinkStats
}

// LinkStats counts the link's activity.
type LinkStats struct {
	Received  int
	Forwarded int
	Dropped   int
}

// NewLink starts a link listening on listenAddr (e.g. "127.0.0.1:0") that
// forwards to dst.
func NewLink(listenAddr, dst string, cfg LinkConfig) (*Link, error) {
	daddr, err := resolve(dst)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	l := &Link{sock: newSockets(), dst: daddr, cfg: cfg, rng: rng.New(seed)}
	if l.conn, err = l.sock.listen(listenAddr); err != nil {
		return nil, err
	}
	l.sock.serve(l.conn, 64*1024, l.onData)
	return l, nil
}

// Addr returns the link's ingress address.
func (l *Link) Addr() string { return l.conn.LocalAddr().String() }

// Stats returns a snapshot of the counters.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close stops the link. Delayed datagrams not yet due are never sent;
// Close waits only for a send already under way.
func (l *Link) Close() error { return l.sock.close() }

func (l *Link) onData(b []byte, _ netip.AddrPort) {
	drop, delay := l.decide()
	switch {
	case drop:
	case delay <= 0:
		_, _ = l.conn.WriteToUDPAddrPort(b, l.dst)
	default:
		pkt := append([]byte(nil), b...) // sent after serve reuses b
		l.sock.after(delay, func() { _, _ = l.conn.WriteToUDPAddrPort(pkt, l.dst) })
	}
}

// decide applies the loss process to one packet.
func (l *Link) decide() (drop bool, delay time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Received++
	if l.bad {
		if l.rng.Float64() < l.cfg.BurstExit {
			l.bad = false
		}
	} else if l.cfg.BurstEnter > 0 && l.rng.Float64() < l.cfg.BurstEnter {
		l.bad = true
	}
	p := l.cfg.Loss
	if l.bad {
		p = l.cfg.BurstLoss
	}
	if p > 0 && l.rng.Float64() < p {
		l.stats.Dropped++
		return true, 0
	}
	l.stats.Forwarded++
	delay = l.cfg.Delay
	if l.cfg.Jitter > 0 {
		delay += time.Duration(l.rng.ExpFloat64() * float64(l.cfg.Jitter))
	}
	return false, delay
}

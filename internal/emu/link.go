package emu

import (
	"net"
	"repro/internal/sim/rng"
	"sync"
	"time"
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
	conn *net.UDPConn
	dst  *net.UDPAddr

	mu    sync.Mutex
	cfg   LinkConfig
	rng   *rng.Stream
	bad   bool
	stats LinkStats

	wg     sync.WaitGroup
	closed chan struct{}
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
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, err
	}
	daddr, err := net.ResolveUDPAddr("udp", dst)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(1 << 21)
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	l := &Link{
		conn:   conn,
		dst:    daddr,
		cfg:    cfg,
		rng:    rng.New(seed),
		closed: make(chan struct{}),
	}
	l.wg.Add(1)
	go l.run()
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

// Close stops the link.
func (l *Link) Close() error {
	select {
	case <-l.closed:
		return nil
	default:
	}
	close(l.closed)
	err := l.conn.Close()
	l.wg.Wait()
	return err
}

func (l *Link) run() {
	defer l.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := l.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-l.closed:
				return
			default:
				continue
			}
		}
		drop, delay := l.decide()
		if drop {
			continue
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		if delay <= 0 {
			_, _ = l.conn.WriteToUDP(pkt, l.dst)
			continue
		}
		l.wg.Add(1)
		time.AfterFunc(delay, func() {
			defer l.wg.Done()
			select {
			case <-l.closed:
			default:
				_, _ = l.conn.WriteToUDP(pkt, l.dst)
			}
		})
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

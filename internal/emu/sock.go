package emu

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"time"
)

// sockets is the socket lifecycle every live role shares: it opens the
// role's sockets, runs its read loops, tickers and delayed sends, and
// closes them all once. It is the one place this package resolves
// addresses, opens sockets or starts goroutines.
type sockets struct {
	conns  []*net.UDPConn
	wg     sync.WaitGroup // the goroutines of serve and every, and after's running callbacks
	closed chan struct{}
	once   sync.Once

	mu      sync.Mutex
	pending map[*time.Timer]bool // after's timers that have not fired; nil once closed
}

func newSockets() *sockets {
	return &sockets{closed: make(chan struct{}), pending: make(map[*time.Timer]bool)}
}

// resolve looks a peer up once. The address is unmapped, because an IPv4
// socket refuses to send to the [::ffff:a.b.c.d] form that
// net.ResolveUDPAddr returns; an empty host means this host, as it does
// for a *net.UDPAddr.
func resolve(addr string) (netip.AddrPort, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	if ua.IP == nil {
		ua.IP = net.IPv4zero
	}
	return unmap(ua.AddrPort()), nil
}

// unmap turns an IPv4-mapped IPv6 address, as a dual-stack socket reads
// it, into the IPv4 address any socket can send to.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// listen opens a socket on addr that Close closes. Its 2 MiB receive
// buffer holds a burst while the reader is descheduled; the kernel may
// cap it, which costs only headroom.
func (s *sockets) listen(addr string) (*net.UDPConn, error) {
	la, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(1 << 21)
	s.conns = append(s.conns, conn)
	return conn, nil
}

// serve passes each datagram read from conn to handle until Close. The
// buffer is reused, so handle copies what it keeps. The sender's address
// is a netip.AddrPort because a *net.UDPAddr would cost an allocation per
// datagram.
func (s *sockets) serve(conn *net.UDPConn, size int, handle func([]byte, netip.AddrPort)) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		buf := make([]byte, size)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			switch {
			case err == nil:
				handle(buf[:n], from)
			case errors.Is(err, net.ErrClosed):
				return
			}
		}
	}()
}

// every calls f every d until Close, or until f returns false.
func (s *sockets) every(d time.Duration, f func() bool) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-s.closed:
				return
			case <-tick.C:
				if !f() {
					return
				}
			}
		}
	}()
}

// after runs f once d has passed, unless Close comes first: Close stops
// the timers that have not fired and waits only for an f already running.
// After Close, after schedules nothing.
func (s *sockets) after(d time.Duration, f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		s.mu.Lock()
		due := s.pending[t]
		if due {
			delete(s.pending, t)
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if due {
			defer s.wg.Done()
			f()
		}
	})
	s.pending[t] = true
}

// close stops after's pending timers, closes the sockets and returns once
// every goroutine of serve and every, and every running f of after, has
// exited. Only the first call does so; later calls return nil.
func (s *sockets) close() error {
	var err error
	s.once.Do(func() {
		close(s.closed)
		s.mu.Lock()
		for t := range s.pending {
			t.Stop()
		}
		s.pending = nil
		s.mu.Unlock()
		for _, c := range s.conns {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
		s.wg.Wait()
	})
	return err
}

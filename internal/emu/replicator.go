package emu

import (
	"net"
	"sync"
)

// Replicator is the SDN-switch stand-in: it receives the real-time stream
// on one UDP socket and forwards a copy of every datagram to each
// configured output (the primary path and the middlebox).
type Replicator struct {
	conn *net.UDPConn
	outs []*net.UDPAddr

	mu       sync.Mutex // guards received and fanned
	received int
	fanned   int

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewReplicator starts a replicator on listenAddr forwarding to outs.
func NewReplicator(listenAddr string, outs ...string) (*Replicator, error) {
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(1 << 21)
	r := &Replicator{conn: conn, closed: make(chan struct{})}
	for _, o := range outs {
		addr, err := net.ResolveUDPAddr("udp", o)
		if err != nil {
			conn.Close()
			return nil, err
		}
		r.outs = append(r.outs, addr)
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// Addr returns the ingress address.
func (r *Replicator) Addr() string { return r.conn.LocalAddr().String() }

// Counts returns (datagrams received, copies forwarded).
func (r *Replicator) Counts() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.received, r.fanned
}

// Close stops the replicator.
func (r *Replicator) Close() error {
	select {
	case <-r.closed:
		return nil
	default:
	}
	close(r.closed)
	err := r.conn.Close()
	r.wg.Wait()
	return err
}

func (r *Replicator) run() {
	defer r.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-r.closed:
				return
			default:
				continue
			}
		}
		r.mu.Lock()
		r.received++
		r.fanned += len(r.outs)
		r.mu.Unlock()
		for _, o := range r.outs {
			_, _ = r.conn.WriteToUDP(buf[:n], o)
		}
	}
}

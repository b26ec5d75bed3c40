package emu

import (
	"net"
	"net/netip"
	"sync"
)

// Replicator is the SDN-switch stand-in: it receives the real-time stream
// on one UDP socket and forwards a copy of every datagram to each
// configured output (the primary path and the middlebox).
type Replicator struct {
	sock *sockets
	conn *net.UDPConn
	outs []netip.AddrPort

	mu       sync.Mutex // guards received and fanned
	received int
	fanned   int
}

// NewReplicator starts a replicator on listenAddr forwarding to outs.
func NewReplicator(listenAddr string, outs ...string) (*Replicator, error) {
	r := &Replicator{sock: newSockets()}
	for _, o := range outs {
		addr, err := resolve(o)
		if err != nil {
			return nil, err
		}
		r.outs = append(r.outs, addr)
	}
	var err error
	if r.conn, err = r.sock.listen(listenAddr); err != nil {
		return nil, err
	}
	r.sock.serve(r.conn, 64*1024, r.onData)
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
func (r *Replicator) Close() error { return r.sock.close() }

func (r *Replicator) onData(b []byte, _ netip.AddrPort) {
	r.mu.Lock()
	r.received++
	r.fanned += len(r.outs)
	r.mu.Unlock()
	for _, o := range r.outs {
		_, _ = r.conn.WriteToUDPAddrPort(b, o)
	}
}

package emu

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// ClientConfig shapes the live DiversiFi receiver.
type ClientConfig struct {
	Stream uint32
	// Interval is the stream's nominal packet spacing (loss detection
	// timer base).
	Interval time.Duration
	// PLT is the loss-detection timeout after the expected arrival
	// (Algorithm 1 uses 2× the spacing).
	PLT time.Duration
	// Deadline is the recovery budget per packet.
	Deadline time.Duration
	// MiddleboxCtrl is the middlebox control address; empty disables
	// recovery (plain receiver).
	MiddleboxCtrl string
	// ImplicitSelection makes recovery requests flush the whole buffer
	// (START <stream> -1) instead of naming the first missing sequence —
	// the behaviour of a PSM access point, which cannot do explicit
	// selection (§5.2.5). Costs extra duplicates.
	ImplicitSelection bool
	// Expected is the total number of packets in the call (for stats).
	Expected int
}

// ClientStats summarises a live call.
type ClientStats struct {
	Received    int
	Recovered   int // packets that arrived only via the middlebox path
	Duplicates  int
	LossesSeen  int // recovery requests issued
	UniqueTotal int
}

// Client is the live single-socket DiversiFi receiver: it accepts stream
// packets (from the primary path and, after a START, from the middlebox),
// detects sequence gaps, and asks the middlebox for exactly the missing
// packets — the explicit packet selection of §5.2.5.
type Client struct {
	sock *sockets
	conn *net.UDPConn
	ctrl *net.UDPConn   // control socket; nil without a middlebox
	box  netip.AddrPort // the middlebox's control address
	cfg  ClientConfig

	mu    sync.Mutex
	cmdMu sync.Mutex // serializes control-protocol exchanges

	got     map[uint32]time.Time
	dup     int
	losses  int
	recov   int
	nextSeq uint32
	active  bool
}

// NewClient starts a receiver on listenAddr (use "127.0.0.1:0").
func NewClient(listenAddr string, cfg ClientConfig) (*Client, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Millisecond
	}
	if cfg.PLT <= 0 {
		cfg.PLT = 2 * cfg.Interval
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 100 * time.Millisecond
	}
	c := &Client{sock: newSockets(), cfg: cfg, got: map[uint32]time.Time{}}
	var err error
	if cfg.MiddleboxCtrl != "" {
		if c.box, err = resolve(cfg.MiddleboxCtrl); err != nil {
			return nil, err
		}
	}
	if c.conn, err = c.sock.listen(listenAddr); err != nil {
		return nil, err
	}
	if cfg.MiddleboxCtrl != "" {
		if c.ctrl, err = c.sock.listen(":0"); err == nil {
			// Register: recovered packets go to our data socket.
			err = c.command(fmt.Sprintf("%s %d %s", CmdRegister, cfg.Stream, c.conn.LocalAddr()))
		}
		if err != nil {
			c.sock.close()
			return nil, err
		}
		c.sock.every(cfg.Interval, c.detect)
	}
	c.sock.serve(c.conn, 64*1024, c.onData)
	return c, nil
}

// Addr returns the client's data address (the primary path's destination).
func (c *Client) Addr() string { return c.conn.LocalAddr().String() }

// command sends one control command and waits briefly for the OK.
func (c *Client) command(cmd string) error {
	if c.ctrl == nil {
		return nil
	}
	c.cmdMu.Lock()
	defer c.cmdMu.Unlock()
	if _, err := c.ctrl.WriteToUDPAddrPort([]byte(cmd), c.box); err != nil {
		return err
	}
	_ = c.ctrl.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	buf := make([]byte, 256)
	n, _, err := c.ctrl.ReadFromUDPAddrPort(buf)
	if err != nil {
		return err
	}
	if len(buf[:n]) < 2 || string(buf[:2]) != "OK" {
		return fmt.Errorf("emu: control error: %s", buf[:n])
	}
	return nil
}

// Stats returns a snapshot of the call statistics.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{
		Received:    len(c.got) + c.dup,
		Recovered:   c.recov,
		Duplicates:  c.dup,
		LossesSeen:  c.losses,
		UniqueTotal: len(c.got),
	}
}

// LossRate reports the final unique-packet loss fraction against the
// expected count.
func (c *Client) LossRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Expected <= 0 {
		return 0
	}
	lost := c.cfg.Expected - len(c.got)
	if lost < 0 {
		lost = 0
	}
	return float64(lost) / float64(c.cfg.Expected)
}

// Close stops the client, sending a final STOP to the middlebox. A second
// Close sends nothing, as the control socket is closed by then.
func (c *Client) Close() error {
	_ = c.command(fmt.Sprintf("%s %d", CmdStop, c.cfg.Stream))
	return c.sock.close()
}

func (c *Client) onData(b []byte, _ netip.AddrPort) {
	stream, seq, ok := DecodeStream(b)
	if !ok || stream != c.cfg.Stream {
		return
	}
	c.mu.Lock()
	if _, dup := c.got[seq]; dup {
		c.dup++
	} else {
		c.got[seq] = time.Now()
		if seq < c.nextSeq {
			// Filled a sequence gap: this copy came via the
			// middlebox path (the primary delivers in order).
			c.recov++
		}
	}
	if seq >= c.nextSeq {
		c.nextSeq = seq + 1
	}
	c.mu.Unlock()
}

// detect runs every Interval: it looks for sequence gaps older than PLT
// and asks the middlebox for them, then stops delivery once caught up.
func (c *Client) detect() bool {
	c.mu.Lock()
	var missing []uint32
	// A gap below nextSeq that is old enough to be declared lost but
	// young enough to still be useful.
	horizon := uint32(0)
	if span := uint32(c.cfg.Deadline / c.cfg.Interval); c.nextSeq > span {
		horizon = c.nextSeq - span
	}
	pltSpan := uint32(c.cfg.PLT/c.cfg.Interval) + 1
	upper := uint32(0)
	if c.nextSeq > pltSpan {
		upper = c.nextSeq - pltSpan
	}
	for seq := horizon; seq < upper; seq++ {
		if _, ok := c.got[seq]; !ok {
			missing = append(missing, seq)
		}
	}
	active := c.active
	c.mu.Unlock()

	switch {
	case len(missing) > 0 && !active:
		c.mu.Lock()
		c.losses += len(missing)
		c.active = true
		c.mu.Unlock()
		// Recovered packets arrive on the data socket and are counted
		// there when they fill a gap.
		from := int64(missing[0])
		if c.cfg.ImplicitSelection {
			from = -1
		}
		_ = c.command(fmt.Sprintf("%s %d %d", CmdStart, c.cfg.Stream, from))
	case len(missing) == 0 && active:
		c.mu.Lock()
		c.active = false
		c.mu.Unlock()
		_ = c.command(fmt.Sprintf("%s %d", CmdStop, c.cfg.Stream))
	}
	return true
}

package emu

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/rtp"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{Stream: 7, Seq: 42, Flags: 3, SentAt: time.Unix(0, 1234567890), Payload: []byte("hello")}
	wire := p.Marshal(nil)
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream != 7 || got.Seq != 42 || got.Flags != 3 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !got.SentAt.Equal(p.SentAt) {
		t.Fatalf("timestamp mismatch: %v vs %v", got.SentAt, p.SentAt)
	}
	if string(got.Payload) != "hello" {
		t.Fatalf("payload mismatch: %q", got.Payload)
	}
}

func TestPacketMarshalReuse(t *testing.T) {
	p := Packet{Stream: 1, Seq: 2, Payload: make([]byte, 160)}
	buf := p.Marshal(nil)
	buf2 := p.Marshal(buf)
	if &buf[0] != &buf2[0] {
		t.Error("Marshal reallocated despite sufficient capacity")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, {1, 2, 3}, make([]byte, 19), append([]byte("XX"), make([]byte, 18)...)}
	for _, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("garbage %v accepted", c)
		}
	}
}

// patience bounds every wait on a condition; only a failing test waits
// that long.
const patience = 5 * time.Second

// waitFor polls cond until it holds or patience runs out, and reports
// whether it held.
func waitFor(cond func() bool) bool {
	for end := time.Now().Add(patience); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

// udpSink collects datagrams on an ephemeral port.
type udpSink struct {
	conn *net.UDPConn
	ch   chan []byte
}

func newSink(t *testing.T) *udpSink {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := &udpSink{conn: conn, ch: make(chan []byte, 4096)}
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				close(s.ch)
				return
			}
			cp := make([]byte, n)
			copy(cp, buf[:n])
			select {
			case s.ch <- cp:
			default:
			}
		}
	}()
	t.Cleanup(func() { conn.Close() })
	return s
}

func (s *udpSink) addr() string { return s.conn.LocalAddr().String() }

// drain returns as soon as want datagrams have arrived, or after d with
// those that did. A test that asserts nothing arrives passes want 1 and
// the quiet window as d.
func (s *udpSink) drain(want int, d time.Duration) [][]byte {
	var out [][]byte
	deadline := time.After(d)
	for len(out) < want {
		select {
		case b, ok := <-s.ch:
			if !ok {
				return out
			}
			out = append(out, b)
		case <-deadline:
			return out
		}
	}
	return out
}

// seqsOf decodes the sequence numbers of DF datagrams.
func seqsOf(t *testing.T, pkts [][]byte) []uint32 {
	t.Helper()
	var seqs []uint32
	for _, raw := range pkts {
		p, err := Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, p.Seq)
	}
	return seqs
}

// dialCtrl returns a function that sends one control command to addr and
// returns the reply.
func dialCtrl(t *testing.T, addr string) func(string) string {
	t.Helper()
	ctrl, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	return func(s string) string {
		t.Helper()
		fmt.Fprint(ctrl, s)
		ctrl.SetReadDeadline(time.Now().Add(time.Second))
		buf := make([]byte, 256)
		n, err := ctrl.Read(buf)
		if err != nil {
			t.Fatalf("control %q: %v", s, err)
		}
		return string(buf[:n])
	}
}

// feed sends DF packets with the given sequence numbers of stream to addr.
func feed(t *testing.T, addr string, stream uint32, seqs ...uint32) {
	t.Helper()
	data, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	var buf []byte
	for _, seq := range seqs {
		p := Packet{Stream: stream, Seq: seq, SentAt: time.Now(), Payload: []byte("v")}
		buf = p.Marshal(buf)
		data.Write(buf)
	}
}

// waitStats polls STATS on stream until the reply contains field, such as
// "buffered=3".
func waitStats(t *testing.T, cmd func(string) string, stream uint32, field string) {
	t.Helper()
	var last string
	if !waitFor(func() bool {
		last = cmd(fmt.Sprintf("%s %d", CmdStats, stream))
		return strings.Contains(last, " "+field)
	}) {
		t.Fatalf("STATS %d = %q, never reached %s", stream, last, field)
	}
}

// TestLinkForwards: a lossless link forwards every datagram, at once or
// through the delayed sends whose timers fire while new ones are set.
func TestLinkForwards(t *testing.T) {
	for _, cfg := range []LinkConfig{
		{Seed: 1},
		{Delay: 2 * time.Millisecond, Jitter: time.Millisecond, Seed: 1},
	} {
		sink := newSink(t)
		link, err := NewLink("127.0.0.1:0", sink.addr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()

		conn, err := net.Dial("udp", link.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i := 0; i < 50; i++ {
			fmt.Fprintf(conn, "pkt-%d", i)
		}
		got := sink.drain(50, patience)
		if len(got) != 50 {
			t.Fatalf("lossless link (delay %v) delivered %d/50", cfg.Delay, len(got))
		}
		st := link.Stats()
		if st.Received != 50 || st.Forwarded != 50 || st.Dropped != 0 {
			t.Fatalf("delay %v: stats %+v", cfg.Delay, st)
		}
	}
}

func TestLinkLoss(t *testing.T) {
	sink := newSink(t)
	link, err := NewLink("127.0.0.1:0", sink.addr(), LinkConfig{Loss: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	conn, _ := net.Dial("udp", link.Addr())
	defer conn.Close()
	for i := 0; i < 400; i++ {
		fmt.Fprintf(conn, "p%d", i)
		if i%50 == 49 && !waitFor(func() bool { return link.Stats().Received == i+1 }) {
			t.Fatalf("forwarder stuck at %+v", link.Stats())
		}
	}
	st := link.Stats()
	got := sink.drain(st.Forwarded, patience)
	if len(got) != st.Forwarded || len(got) < 120 || len(got) > 280 {
		t.Fatalf("50%% loss link delivered %d/400 (stats %+v)", len(got), st)
	}
}

func TestReplicatorFansOut(t *testing.T) {
	a, b := newSink(t), newSink(t)
	rep, err := NewReplicator("127.0.0.1:0", a.addr(), b.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	conn, _ := net.Dial("udp", rep.Addr())
	defer conn.Close()
	for i := 0; i < 30; i++ {
		fmt.Fprintf(conn, "r%d", i)
	}
	ga := a.drain(30, patience)
	gb := b.drain(30, patience)
	if len(ga) != 30 || len(gb) != 30 {
		t.Fatalf("fan-out %d/%d, want 30/30", len(ga), len(gb))
	}
	recv, fanned := rep.Counts()
	if recv != 30 || fanned != 60 {
		t.Fatalf("counts %d/%d", recv, fanned)
	}
}

func TestMiddleboxProtocol(t *testing.T) {
	mb, err := NewMiddlebox("127.0.0.1:0", "127.0.0.1:0", MiddleboxConfig{BufferDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	sink := newSink(t)
	cmd := dialCtrl(t, mb.CtrlAddr())

	if got := cmd("REGISTER 9 " + sink.addr()); got != "OK" {
		t.Fatalf("register: %s", got)
	}

	// Feed 6 packets into a depth-3 buffer: only seqs 3,4,5 survive.
	feed(t, mb.DataAddr(), 9, 0, 1, 2, 3, 4, 5)
	waitStats(t, cmd, 9, "buffered=3")

	if got := cmd("START 9 4"); got != "OK" {
		t.Fatalf("start: %s", got)
	}
	if seqs := seqsOf(t, sink.drain(2, patience)); len(seqs) != 2 || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("explicit selection delivered %v, want [4 5]", seqs)
	}

	// While active, fresh packets stream through.
	feed(t, mb.DataAddr(), 9, 10)
	if live := seqsOf(t, sink.drain(1, patience)); len(live) != 1 || live[0] != 10 {
		t.Fatalf("active stream delivered %v, want [10]", live)
	}

	if got := cmd("STOP 9"); got != "OK" {
		t.Fatalf("stop: %s", got)
	}
	feed(t, mb.DataAddr(), 9, 11)
	if got := sink.drain(1, 200*time.Millisecond); len(got) != 0 {
		t.Fatalf("stopped stream leaked %d packets", len(got))
	}

	if stats := cmd("STATS 9"); stats != "OK sent=3 dropped=3 buffered=1" {
		t.Fatalf("stats: %s", stats)
	}
}

// quietSocket opens a UDP socket that nothing reads until the test asks:
// what is sent to it queues in the kernel, which drops what overflows the
// socket's buffer, so receiving it allocates nothing in this process.
func quietSocket(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// received reports whether a datagram is waiting on conn.
func received(t *testing.T, conn *net.UDPConn) bool {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	_, _, err := conn.ReadFromUDPAddrPort(make([]byte, 2048))
	return err == nil
}

// TestMiddleboxForwardsWithoutAllocating: a started stream's datagram goes
// from the read buffer straight to the client. Only a stopped stream, which
// holds the datagram past the read, copies it. testing.AllocsPerRun counts
// every allocation in the process, so each role forwards to a quiet socket
// that no goroutine reads while the count runs.
func TestMiddleboxForwardsWithoutAllocating(t *testing.T) {
	mb, err := NewMiddlebox("127.0.0.1:0", "127.0.0.1:0", MiddleboxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	client := quietSocket(t)
	cmd := dialCtrl(t, mb.CtrlAddr())
	for _, c := range []string{"REGISTER 9 " + client.LocalAddr().String(), "START 9"} {
		if got := cmd(c); got != "OK" {
			t.Fatalf("%s: %s", c, got)
		}
	}
	pkt := (&Packet{Stream: 9, Seq: 1, Payload: make([]byte, 160)}).Marshal(nil)
	from := netip.MustParseAddrPort("127.0.0.1:9")
	if n := testing.AllocsPerRun(1000, func() { mb.onData(pkt, from) }); n != 0 {
		t.Errorf("forwarding a datagram allocates %v times, want 0", n)
	}
	if !received(t, client) {
		t.Error("the middlebox forwarded nothing to its client")
	}

	// The replicator's fan-out and a link that does not delay forward from
	// the read buffer as well.
	direct, copies := quietSocket(t), quietSocket(t)
	rep, err := NewReplicator("127.0.0.1:0", direct.LocalAddr().String(), copies.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if n := testing.AllocsPerRun(1000, func() { rep.onData(pkt, from) }); n != 0 {
		t.Errorf("replicating a datagram allocates %v times, want 0", n)
	}
	if !received(t, direct) || !received(t, copies) {
		t.Error("the replicator did not reach both of its outputs")
	}
	out := quietSocket(t)
	link, err := NewLink("127.0.0.1:0", out.LocalAddr().String(), LinkConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	if n := testing.AllocsPerRun(1000, func() { link.onData(pkt, from) }); n != 0 {
		t.Errorf("an undelayed link allocates %v times per datagram, want 0", n)
	}
	if !received(t, out) {
		t.Error("the link forwarded nothing")
	}
}

// TestCloseWaitsAndRepeats: each role's Close returns only once the role's
// goroutines are gone, a second Close returns nil, and a link's Close
// stops its pending delayed sends instead of waiting for them to come due.
func TestCloseWaitsAndRepeats(t *testing.T) {
	sink := newSink(t)
	mb, err := NewMiddlebox("127.0.0.1:0", "127.0.0.1:0", MiddleboxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	// The link's delay leaves Close a wide margin under -race; its own sink
	// shows whether any delayed datagram left after Close.
	const delay = 500 * time.Millisecond
	linkSink := newSink(t)
	var fed time.Time // when the link's datagrams were sent
	for _, role := range []struct {
		name string
		open func() (io.Closer, error)
	}{
		{"replicator", func() (io.Closer, error) { return NewReplicator("127.0.0.1:0", sink.addr()) }},
		{"middlebox", func() (io.Closer, error) {
			return NewMiddlebox("127.0.0.1:0", "127.0.0.1:0", MiddleboxConfig{})
		}},
		{"client", func() (io.Closer, error) {
			return NewClient("127.0.0.1:0", ClientConfig{Stream: 3, MiddleboxCtrl: mb.CtrlAddr()})
		}},
		{"sender", func() (io.Closer, error) {
			return NewSender(sink.addr(), SenderConfig{Stream: 3, Interval: time.Millisecond})
		}},
		{"link", func() (io.Closer, error) {
			link, err := NewLink("127.0.0.1:0", linkSink.addr(), LinkConfig{Delay: delay, Seed: 1})
			if err != nil {
				return nil, err
			}
			fed = time.Now()
			feed(t, link.Addr(), 3, 0, 1, 2)
			if !waitFor(func() bool { return link.Stats().Received == 3 }) {
				t.Fatalf("link received %+v, want 3 datagrams", link.Stats())
			}
			return link, nil
		}},
	} {
		base := runtime.NumGoroutine()
		r, err := role.open()
		if err != nil {
			t.Fatalf("%s: %v", role.name, err)
		}
		if err := r.Close(); err != nil {
			t.Errorf("%s: Close: %v", role.name, err)
		}
		if role.name == "link" && time.Since(fed) >= delay {
			t.Errorf("link Close returned %v after its datagrams were sent, not before their %v delay",
				time.Since(fed), delay)
		}
		if err := r.Close(); err != nil {
			t.Errorf("%s: second Close: %v", role.name, err)
		}
		// A goroutine counts until it has returned from its last
		// deferred call, a moment after Close saw it finish.
		if !waitFor(func() bool { return runtime.NumGoroutine() <= base }) {
			t.Errorf("%s: %d goroutines after Close, %d before the role opened",
				role.name, runtime.NumGoroutine(), base)
		}
	}
	// Wait past the delay: the datagrams the link held at Close never leave.
	if got := linkSink.drain(1, time.Until(fed.Add(delay+200*time.Millisecond))); len(got) != 0 {
		t.Errorf("link sent %d delayed datagrams after Close", len(got))
	}
}

func TestMiddleboxRejectsUnknown(t *testing.T) {
	mb, err := NewMiddlebox("127.0.0.1:0", "127.0.0.1:0", MiddleboxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	cmd := dialCtrl(t, mb.CtrlAddr())
	for _, c := range []struct{ cmd, want string }{
		{"START 99", "ERR"},
		{"NONSENSE 1", "ERR"},
		{"START", "ERR"},
		{"START abc", "ERR"},
		// A garbled fromSeq must not turn into a full flush.
		{"REGISTER 9", "OK"},
		{"START 9 abc", "ERR seq"},
	} {
		if got := cmd(c.cmd); !strings.HasPrefix(got, c.want) {
			t.Errorf("%q: got %q, want %s", c.cmd, got, c.want)
		}
	}
}

func TestSenderCBR(t *testing.T) {
	sink := newSink(t)
	s, err := NewSender(sink.addr(), SenderConfig{
		Stream: 1, PayloadSize: 160, Interval: 5 * time.Millisecond, Count: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	select {
	case <-s.Done():
	case <-time.After(3 * time.Second):
		t.Fatal("sender did not finish")
	}
	got := sink.drain(40, patience)
	if len(got) != 40 || s.Sent() != 40 {
		t.Fatalf("received %d/40 (sent %d)", len(got), s.Sent())
	}
	p, err := Unmarshal(got[0])
	if err != nil || p.Stream != 1 || len(p.Payload) != 160 {
		t.Fatalf("first packet %+v err %v", p, err)
	}
}

// liveCall is one live call: a Sender streams count packets at 5 ms
// spacing through a Replicator to a lossy primary Link and to box, and a
// Client recovers the primary's losses from box (nil box: no recovery
// path, the sender feeds the primary directly).
type liveCall struct {
	stream   uint32
	count    int
	loss     float64
	seed     int64
	box      *Middlebox
	implicit bool // client sends START <stream> -1
	rtp      bool
}

// run streams the call and returns the client and the primary link once
// the sender is done and landed(client, primary) holds. It fails the test
// when landed does not hold within patience. Close box with t.Cleanup
// registered before run, so that the client, whose Close sends a final
// STOP, closes first.
func (lc liveCall) run(t *testing.T, landed func(*Client, *Link) bool) (*Client, *Link) {
	t.Helper()
	interval := 5 * time.Millisecond
	cfg := ClientConfig{Stream: lc.stream, Interval: interval, Expected: lc.count}
	if lc.box != nil {
		cfg.PLT, cfg.Deadline = 2*interval, 20*interval
		cfg.MiddleboxCtrl, cfg.ImplicitSelection = lc.box.CtrlAddr(), lc.implicit
	}
	client, err := NewClient("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	primary, err := NewLink("127.0.0.1:0", client.Addr(), LinkConfig{Loss: lc.loss, Seed: lc.seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	ingress := primary.Addr()
	if lc.box != nil {
		rep, err := NewReplicator("127.0.0.1:0", primary.Addr(), lc.box.DataAddr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rep.Close() })
		ingress = rep.Addr()
	}
	sender, err := NewSender(ingress, SenderConfig{
		Stream: lc.stream, PayloadSize: 160, Interval: interval, Count: lc.count, UseRTP: lc.rtp,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.Close() })
	select {
	case <-sender.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sender stuck")
	}
	if !waitFor(func() bool { return landed(client, primary) }) {
		t.Fatalf("call did not settle: client %+v, loss %.3f, primary %+v",
			client.Stats(), client.LossRate(), primary.Stats())
	}
	return client, primary
}

// recovered is the landed condition of a recovery test: the client has
// recovered something and its unique loss is at most maxLoss. Both only
// improve as copies land, so the test's verdict is the one a longer wait
// would give.
func recovered(maxLoss float64) func(*Client, *Link) bool {
	return func(c *Client, _ *Link) bool {
		return c.Stats().Recovered > 0 && c.LossRate() <= maxLoss
	}
}

// TestEndToEndRecovery is the live "aha": a lossy primary path plus a
// middlebox recovery path brings unique-packet loss to ~zero.
func TestEndToEndRecovery(t *testing.T) {
	mb, err := NewMiddlebox("127.0.0.1:0", "127.0.0.1:0", MiddleboxConfig{BufferDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb.Close() })
	// The primary path is a 10%-loss link into the client.
	_, primary := liveCall{stream: 77, count: 150, loss: 0.10, seed: 4, box: mb}.run(t, recovered(0.03))
	if primary.Stats().Dropped == 0 {
		t.Fatal("primary link dropped nothing; test is vacuous")
	}
}

// TestEndToEndWithoutRecovery confirms the baseline actually loses packets.
func TestEndToEndWithoutRecovery(t *testing.T) {
	const count = 120
	client, _ := liveCall{stream: 1, count: count, loss: 0.15, seed: 5}.run(t, func(c *Client, l *Link) bool {
		st := l.Stats()
		return st.Received == count && c.Stats().Received == st.Forwarded
	})
	if lr := client.LossRate(); lr < 0.05 {
		t.Errorf("baseline loss = %.1f%%, expected ~15%%", 100*lr)
	}
}

// TestExplicitSelectionCostsFewerDuplicates compares the middlebox's
// explicit fromSeq fetch with the AP-style implicit flush: both recover the
// losses, but implicit selection re-delivers packets the client already
// has (§5.2.5).
func TestExplicitSelectionCostsFewerDuplicates(t *testing.T) {
	const count = 200
	run := func(implicit bool) (ClientStats, float64) {
		mb, err := NewMiddlebox("127.0.0.1:0", "127.0.0.1:0", MiddleboxConfig{BufferDepth: 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mb.Close() })
		client, _ := liveCall{stream: 5, count: count, loss: 0.08, seed: 11, box: mb, implicit: implicit}.run(t,
			func(c *Client, l *Link) bool {
				// Every copy sent to the client so far has landed, so
				// no duplicate is still in flight.
				ls := l.Stats()
				sent, _ := mb.Counts()
				return ls.Received == count && c.Stats().Received == ls.Forwarded+sent && recovered(0.05)(c, l)
			})
		return client.Stats(), client.LossRate()
	}
	explicit, lossE := run(false)
	implicit, lossI := run(true)
	if lossE > 0.05 || lossI > 0.05 {
		t.Fatalf("recovery failed: explicit %.2f implicit %.2f", lossE, lossI)
	}
	if explicit.Recovered == 0 || implicit.Recovered == 0 {
		t.Fatalf("no recoveries: %+v / %+v", explicit, implicit)
	}
	if implicit.Duplicates <= explicit.Duplicates {
		t.Errorf("implicit flush duplicates (%d) not above explicit (%d)",
			implicit.Duplicates, explicit.Duplicates)
	}
}

// TestAPEmuEndToEnd runs the live "Customized AP" deployment: the client
// pairs with NewAPEmu's box using implicit selection (an AP cannot fetch
// by sequence number) and still recovers the primary path's losses.
func TestAPEmuEndToEnd(t *testing.T) {
	apEmu, err := NewAPEmu("127.0.0.1:0", "127.0.0.1:0", 20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { apEmu.Close() })
	liveCall{stream: 9, count: 150, loss: 0.10, seed: 21, box: apEmu, implicit: true}.run(t, recovered(0.03))
	if sent, _ := apEmu.Counts(); sent == 0 {
		t.Error("AP emulator sent nothing")
	}
}

func TestAPEmuProtocol(t *testing.T) {
	apEmu, err := NewAPEmu("127.0.0.1:0", "127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer apEmu.Close()
	sink := newSink(t)
	cmd := dialCtrl(t, apEmu.CtrlAddr())
	if got := cmd("START 1"); got[:3] != "ERR" {
		t.Errorf("START before REGISTER: %s", got)
	}
	if got := cmd("REGISTER 1 " + sink.addr()); got != "OK" {
		t.Fatalf("register: %s", got)
	}
	feed(t, apEmu.DataAddr(), 1, 0, 1, 2, 3, 4, 5)
	waitStats(t, cmd, 1, "buffered=3")
	if got := cmd("START 1 4"); got != "OK" { // fromSeq ignored: implicit
		t.Fatalf("start: %s", got)
	}
	// Depth 3: seqs 3,4,5 survive and ALL are flushed (no selection).
	if seqs := seqsOf(t, sink.drain(3, patience)); len(seqs) != 3 || seqs[0] != 3 {
		t.Fatalf("AP flushed %v, want [3 4 5] (implicit selection)", seqs)
	}
	if got := cmd("STOP 1"); got != "OK" {
		t.Fatalf("stop: %s", got)
	}
	if got := cmd("STATS 1"); got != "OK sent=3 dropped=3 buffered=0" {
		t.Fatalf("stats: %s", got)
	}
}

// TestRTPModeEndToEnd carries standard RTP through the whole live
// pipeline: replicator, lossy link, middlebox recovery — no DF framing.
func TestRTPModeEndToEnd(t *testing.T) {
	mb, err := NewMiddlebox("127.0.0.1:0", "127.0.0.1:0", MiddleboxConfig{BufferDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb.Close() })
	liveCall{stream: 0xabcd, count: 150, loss: 0.10, seed: 31, box: mb, rtp: true}.run(t, recovered(0.03))
}

func TestDecodeStream(t *testing.T) {
	df := Packet{Stream: 7, Seq: 9, SentAt: time.Now()}
	if s, q, ok := DecodeStream(df.Marshal(nil)); !ok || s != 7 || q != 9 {
		t.Errorf("DF decode = %d/%d/%v", s, q, ok)
	}
	rp := rtpPacketBytes(t, 0x55, 1234)
	if s, q, ok := DecodeStream(rp); !ok || s != 0x55 || q != 1234 {
		t.Errorf("RTP decode = %d/%d/%v", s, q, ok)
	}
	if _, _, ok := DecodeStream([]byte("junk")); ok {
		t.Error("junk decoded")
	}
}

func rtpPacketBytes(t *testing.T, ssrc uint32, seq uint16) []byte {
	t.Helper()
	p := rtp.Packet{Header: rtp.Header{PayloadType: 0, Sequence: seq, SSRC: ssrc}}
	wire, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

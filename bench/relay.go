package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emu"
)

// relayShape sizes the live relay workload: open-loop G.711-shaped
// streams through an emu.Replicator that fans each datagram out to the
// benchmark's socket (the direct path) and to an emu.Middlebox, whose
// copies reach the same socket while the stream is started.
type relayShape struct {
	streams    int
	interval   time.Duration // per-stream packet spacing
	payload    int           // bytes after the 20-byte header
	outage     int           // packets sent while a stream's middlebox copy is stopped
	fromOffset int           // START names stopSeq+fromOffset: inside the buffered tail
	activeMin  int           // packets between outages: uniform in [activeMin, activeMax]
	activeMax  int
	depth      int           // middlebox head-drop buffer
	drain      time.Duration // wait for in-flight copies after the last send
	// maxLate invalidates a run whose generator falls further behind its
	// schedule than this: the offered load was no longer the stated one.
	maxLate time.Duration
	// dropReplies makes the receiver ignore that many control replies, so
	// a test can check that an unanswered command fails the run.
	dropReplies int
}

var relayLive = relayShape{
	streams: 400, interval: 20 * time.Millisecond, payload: 160,
	outage: 10, fromOffset: 7, activeMin: 40, activeMax: 120, depth: 5,
	drain: 300 * time.Millisecond, maxLate: 100 * time.Millisecond,
}

// relayStream is one stream's generator state. The schedule is counted in
// packets, so it depends only on the seed, never on timing.
type relayStream struct {
	id      uint32
	phase   time.Duration // offset of its sends within each interval
	next    uint32        // next sequence number to send
	stopAt  uint32        // STOP goes out before this sequence
	startAt uint32        // while stopped: START goes out before this sequence
	stopped bool
	outages int
	// window is the last outage's, set by the generator before its START
	// and read by the receiver (nil before the first outage).
	window atomic.Pointer[outageWindow]
}

// outageWindow splits a stream's sequence numbers around its last outage.
// Copies below stop were forwarded live before the STOP, however late they
// arrive; copies in [stop, from) were sent while stopped and below the
// START's fromSeq, so the middlebox must never forward them; copies in
// [from, live) were held in the head-drop buffer and released by the
// START, so their age is the outage's, not the relay's.
type outageWindow struct{ stop, from, live int64 }

type ctrlCmd struct {
	id   int64 // span id
	name string
	sent time.Time
}

type relaySession struct {
	shape   relayShape
	rng     *rand.Rand
	mb      *emu.Middlebox
	rep     *emu.Replicator
	sock    *net.UDPConn
	repAddr netip.AddrPort
	mbData  netip.AddrPort
	mbCtrl  netip.AddrPort
	streams []*relayStream // by id-1
	order   []*relayStream // by phase: the generator's send order
	rec     *recorder      // the current run's span recorder

	ctrlMu      sync.Mutex
	pending     []ctrlCmd // sent, awaiting their reply in order
	dropReplies int

	// Receiver state, owned by the receiving goroutine while a run is in
	// flight and read by run once it has exited.
	direct, viaMB      [][]uint8 // copies seen per stream and sequence
	latDirect, latMB   []float64 // ns from send stamp to receipt
	ctrlRTT            []float64
	late               []float64 // generator lateness per send, ns, sorted
	mbDup, outOfWindow int64
	flushed            int64 // middlebox copies released from the buffer by a START
	badReplies, stray  int64
	recvErr            error
}

func openRelay(sh relayShape, seed int64) (session, error) {
	s := &relaySession{shape: sh, rng: rand.New(rand.NewPCG(uint64(seed), 0x72656c6179)),
		dropReplies: sh.dropReplies}
	var err error
	if s.mb, err = emu.NewMiddlebox("127.0.0.1:0", "127.0.0.1:0", emu.MiddleboxConfig{BufferDepth: sh.depth}); err != nil {
		return nil, err
	}
	if s.sock, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		s.close()
		return nil, err
	}
	_ = s.sock.SetReadBuffer(4 << 20) // best effort: the kernel caps it at rmem_max
	_ = s.sock.SetWriteBuffer(4 << 20)
	if s.rep, err = emu.NewReplicator("127.0.0.1:0", s.sock.LocalAddr().String(), s.mb.DataAddr()); err != nil {
		s.close()
		return nil, err
	}
	for _, a := range []struct {
		dst  *netip.AddrPort
		addr string
	}{{&s.repAddr, s.rep.Addr()}, {&s.mbData, s.mb.DataAddr()}, {&s.mbCtrl, s.mb.CtrlAddr()}} {
		if *a.dst, err = netip.ParseAddrPort(a.addr); err != nil {
			s.close()
			return nil, err
		}
	}
	var cmds []string
	for i := 0; i < sh.streams; i++ {
		st := &relayStream{id: uint32(i + 1), phase: time.Duration(s.rng.Int64N(int64(sh.interval)))}
		st.stopAt = uint32(sh.activeMin + s.rng.IntN(sh.activeMax-sh.activeMin+1))
		s.streams = append(s.streams, st)
		cmds = append(cmds, fmt.Sprintf("%s %d %s", emu.CmdRegister, st.id, s.sock.LocalAddr()),
			fmt.Sprintf("%s %d -1", emu.CmdStart, st.id))
	}
	if _, err := s.commands(cmds); err != nil {
		s.close()
		return nil, err
	}
	s.order = append([]*relayStream(nil), s.streams...)
	sort.SliceStable(s.order, func(i, j int) bool { return s.order[i].phase < s.order[j].phase })
	s.direct = make([][]uint8, sh.streams)
	s.viaMB = make([][]uint8, sh.streams)
	return s, nil
}

func (s *relaySession) close() error {
	var errs []error
	if s.rep != nil {
		errs = append(errs, s.rep.Close())
	}
	if s.mb != nil {
		errs = append(errs, s.mb.Close())
	}
	if s.sock != nil {
		errs = append(errs, s.sock.Close())
	}
	return errors.Join(errs...)
}

// ctrlWindow is how many control commands may await their replies at
// once outside a run. All 800 of a set-up fired at once overrun the
// middlebox's control socket and lose registrations; one at a time, the
// set-up times the host's wake-ups more than the middlebox.
const ctrlWindow = 16

// commands sends control commands, at most ctrlWindow awaiting a reply at
// a time, and returns every reply in arrival order (only while no run is
// in flight, when nothing else reads the socket). A reply other than OK, or
// one that does not come within a second, fails the set.
func (s *relaySession) commands(cmds []string) ([]string, error) {
	buf := make([]byte, 512)
	defer s.sock.SetReadDeadline(time.Time{})
	replies := make([]string, 0, len(cmds))
	for sent := 0; len(replies) < len(cmds); {
		for ; sent < len(cmds) && sent-len(replies) < ctrlWindow; sent++ {
			if _, err := s.sock.WriteToUDPAddrPort([]byte(cmds[sent]), s.mbCtrl); err != nil {
				return nil, err
			}
		}
		if err := s.sock.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return nil, err
		}
		n, from, err := s.sock.ReadFromUDPAddrPort(buf)
		if err != nil {
			return nil, fmt.Errorf("%d of %d control commands answered: %w", len(replies), len(cmds), err)
		}
		if from != s.mbCtrl {
			continue
		}
		reply := string(buf[:n])
		if !strings.HasPrefix(reply, "OK") {
			return nil, fmt.Errorf("control command refused: %s", reply)
		}
		replies = append(replies, reply)
	}
	return replies, nil
}

// send fires one control command during a run; the receiver matches
// replies to commands in order.
func (s *relaySession) send(name, cmd string, ph *phase) {
	c := ctrlCmd{id: s.rec.id(), name: name, sent: time.Now()}
	s.ctrlMu.Lock()
	s.pending = append(s.pending, c)
	s.ctrlMu.Unlock()
	ph.attempted++
	if _, err := s.sock.WriteToUDPAddrPort([]byte(cmd), s.mbCtrl); err != nil {
		ph.fail(1, "%s: %v", cmd, err)
	}
}

// awaitReplies waits until no more than n control commands sent during the
// run await their replies, or until the deadline.
func (s *relaySession) awaitReplies(n int, deadline time.Time) {
	for ; time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		s.ctrlMu.Lock()
		k := len(s.pending)
		s.ctrlMu.Unlock()
		if k <= n {
			return
		}
	}
}

func (s *relaySession) start(st *relayStream, ph *phase) {
	from := st.stopAt + uint32(s.shape.fromOffset)
	st.window.Store(&outageWindow{stop: int64(st.stopAt), from: int64(from), live: int64(st.next)})
	s.send(emu.CmdStart, fmt.Sprintf("%s %d %d", emu.CmdStart, st.id, from), ph)
	st.stopped = false
	st.stopAt = st.next + uint32(s.shape.activeMin+s.rng.IntN(s.shape.activeMax-s.shape.activeMin+1))
}

// run offers the streams' packets on schedule for d, then waits for every
// copy and reply in flight and checks what arrived.
func (s *relaySession) run(d time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{}
	s.rec = rec
	periods := int(d / s.shape.interval)
	rssEvery := int(time.Second / s.shape.interval)
	want := periods * s.shape.streams
	s.latDirect = make([]float64, 0, want)
	s.latMB = make([]float64, 0, want)
	s.ctrlRTT = s.ctrlRTT[:0]
	s.mbDup, s.outOfWindow, s.flushed, s.badReplies, s.stray, s.recvErr = 0, 0, 0, 0, 0, nil
	first := make([]uint32, len(s.streams))
	for i, st := range s.streams {
		first[i] = st.next
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.receive()
	}()

	late := make([]float64, 0, want)
	payload := make([]byte, s.shape.payload)
	buf := make([]byte, 0, 64+s.shape.payload)
	t0 := time.Now()
	var sent int64
	for k := 0; k < periods; k++ {
		if k%rssEvery == rssEvery-1 {
			ph.rss = append(ph.rss, rssMiB())
		}
		base := t0.Add(time.Duration(k) * s.shape.interval)
		for _, st := range s.order {
			due := base.Add(st.phase)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late = append(late, float64(time.Since(due)))
			switch {
			case !st.stopped && st.next == st.stopAt:
				s.send(emu.CmdStop, fmt.Sprintf("%s %d", emu.CmdStop, st.id), ph)
				st.stopped = true
				st.startAt = st.next + uint32(s.shape.outage)
				st.outages++
			case st.stopped && st.next == st.startAt:
				s.start(st, ph)
			}
			p := emu.Packet{Stream: st.id, Seq: st.next, SentAt: time.Now(), Payload: payload}
			buf = p.Marshal(buf)
			if _, err := s.sock.WriteToUDPAddrPort(buf, s.repAddr); err != nil {
				ph.fail(1, "send: %v", err)
			}
			st.next++
			sent++
		}
	}
	end := time.Now()
	ph.rss = append(ph.rss, rssMiB())
	// End every open outage, so each run starts with every stream forwarding.
	// First let the copies in flight arrive: the middlebox reads data and
	// control on separate sockets, so it may forward a copy sent just after
	// a STOP before it applies the STOP, and that copy must be judged by the
	// window it was sent in, not by the one the closing START sets. The
	// closing STARTs go out at most ctrlWindow at a time, as in set-up, and
	// every reply has a second to come.
	time.Sleep(s.shape.drain)
	deadline := time.Now().Add(time.Second)
	for _, st := range s.streams {
		if st.stopped {
			s.awaitReplies(ctrlWindow-1, deadline)
			s.start(st, ph)
		}
	}
	s.awaitReplies(0, deadline)
	time.Sleep(s.shape.drain)
	if err := s.sock.SetReadDeadline(time.Now()); err != nil {
		return nil, err
	}
	<-done
	if err := s.sock.SetReadDeadline(time.Time{}); err != nil {
		return nil, err
	}

	ph.attempted += sent
	if s.recvErr != nil {
		ph.fail(1, "receive: %v", s.recvErr)
	}
	var lost, dup int64
	for i, st := range s.streams {
		seen := s.direct[i]
		for seq := first[i]; seq < st.next; seq++ {
			switch c := count(seen, seq); {
			case c == 0:
				lost++
			case c > 1:
				dup += int64(c - 1)
			}
		}
	}
	if lost > 0 {
		ph.fail(lost, "%d direct copies lost", lost)
	}
	if dup > 0 {
		ph.fail(dup, "%d direct copies duplicated", dup)
	}
	if s.mbDup > 0 {
		ph.fail(s.mbDup, "%d middlebox copies duplicated", s.mbDup)
	}
	if s.outOfWindow > 0 {
		ph.fail(s.outOfWindow, "%d middlebox copies sent while stopped and below their START's fromSeq", s.outOfWindow)
	}
	s.ctrlMu.Lock()
	unanswered := int64(len(s.pending))
	s.pending = s.pending[:0]
	s.ctrlMu.Unlock()
	if unanswered > 0 {
		ph.fail(unanswered, "%d control commands unanswered", unanswered)
	}
	if s.badReplies > 0 {
		ph.fail(s.badReplies, "%d control commands refused", s.badReplies)
	}
	if s.stray > 0 {
		ph.fail(s.stray, "%d stray datagrams or replies", s.stray)
	}
	sort.Float64s(late)
	if n := len(late); n > 0 && late[n-1] > float64(s.shape.maxLate) {
		ph.fail(1, "generator fell %v behind its schedule (limit %v)", time.Duration(late[n-1]), s.shape.maxLate)
	}
	s.late = late

	ph.items = sent
	delivered := int64(len(s.latDirect)+len(s.latMB)) + s.flushed
	ph.passes = []pass{{items: delivered, wall: end.Sub(t0)}}
	ph.lat = make([]float64, 0, len(s.latDirect)+len(s.latMB))
	ph.lat = append(append(ph.lat, s.latDirect...), s.latMB...)
	return ph, nil
}

func count(seen []uint8, seq uint32) uint8 {
	if int(seq) < len(seen) {
		return seen[seq]
	}
	return 0
}

// note counts one copy of seq in a per-stream table, growing it as needed,
// and returns how many copies were seen before.
func note(table *[]uint8, seq uint32) uint8 {
	t := *table
	if int(seq) >= len(t) {
		t = append(t, make([]uint8, int(seq)+1-len(t)+len(t)/2)...)
		*table = t
	}
	prev := t[seq]
	if prev < 255 {
		t[seq]++
	}
	return prev
}

// receive reads the socket until run sets a past read deadline: direct
// copies come from the replicator, middlebox copies from its data socket,
// replies from its control socket.
func (s *relaySession) receive() {
	buf := make([]byte, 2048)
	for {
		n, from, err := s.sock.ReadFromUDPAddrPort(buf)
		now := time.Now()
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				s.recvErr = err
			}
			return
		}
		switch from {
		case s.repAddr, s.mbData:
			p, err := emu.Unmarshal(buf[:n])
			if err != nil || p.Stream == 0 || int(p.Stream) > len(s.streams) {
				s.stray++
				continue
			}
			i := p.Stream - 1
			lat := float64(now.Sub(p.SentAt))
			if from == s.repAddr {
				note(&s.direct[i], p.Seq)
				s.latDirect = append(s.latDirect, lat)
				continue
			}
			if note(&s.viaMB[i], p.Seq) > 0 {
				s.mbDup++
			}
			w := s.streams[i].window.Load()
			switch seq := int64(p.Seq); {
			case w == nil || seq < w.stop || seq >= w.live:
				s.latMB = append(s.latMB, lat)
			case seq < w.from:
				s.outOfWindow++
			default:
				s.flushed++
			}
		case s.mbCtrl:
			s.ctrlMu.Lock()
			if s.dropReplies > 0 {
				s.dropReplies--
				s.ctrlMu.Unlock()
				continue
			}
			if len(s.pending) == 0 {
				s.ctrlMu.Unlock()
				s.stray++
				continue
			}
			c := s.pending[0]
			s.pending = s.pending[1:]
			s.ctrlMu.Unlock()
			if !bytes.HasPrefix(buf[:n], []byte("OK")) {
				s.badReplies++
			}
			s.ctrlRTT = append(s.ctrlRTT, float64(now.Sub(c.sent)))
			s.rec.add(c.id, 0, c.name, c.sent)
		default:
			s.stray++
		}
	}
}

// layers reports the relay's per-layer metrics from the last (traced) run,
// plus the middlebox's own counters, read with STATS once traffic stopped.
func (s *relaySession) layers(rec *recorder, dir string) (map[string]float64, error) {
	out := map[string]float64{}
	var err error
	pct := func(samples []float64, q float64) float64 {
		v, perr := percentile(sortedCopy(samples), q)
		if perr != nil && err == nil {
			err = perr
		}
		return v
	}
	out["emu.direct_lat_us_p50"] = pct(s.latDirect, 0.50) / 1e3
	out["emu.middlebox_lat_us_p50"] = pct(s.latMB, 0.50) / 1e3
	out["emu.lat_us_p99"] = pct(append(append([]float64(nil), s.latDirect...), s.latMB...), 0.99) / 1e3
	out["emu.ctrl_rtt_us_p50"] = pct(s.ctrlRTT, 0.50) / 1e3
	out["bench.gen_late_us_p99"] = pct(s.late, 0.99) / 1e3
	if err != nil {
		return nil, err
	}
	received, fanned := s.rep.Counts()
	out["emu.replicator_fanout"] = ratio(float64(fanned), float64(received))

	var dropped, outages int64
	var stats strings.Builder
	for _, st := range s.streams {
		replies, err := s.commands([]string{fmt.Sprintf("%s %d", emu.CmdStats, st.id)})
		if err != nil {
			return nil, err
		}
		reply := replies[0]
		fmt.Fprintf(&stats, "stream %d outages=%d %s\n", st.id, st.outages, reply)
		for _, f := range strings.Fields(reply) {
			if v, ok := strings.CutPrefix(f, "dropped="); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("STATS %d: %q", st.id, reply)
				}
				dropped += n
			}
		}
		outages += int64(st.outages)
	}
	out["emu.headdrop_per_outage"] = ratio(float64(dropped), float64(outages))
	return out, os.WriteFile(filepath.Join(dir, "middlebox-stats.txt"), []byte(stats.String()), 0o644)
}

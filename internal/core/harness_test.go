package core

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestPacketLaneSchedule: a 2-minute G.711 packet lane sends exactly the
// call's 6,000 packets (§4.2), packet i of stream 1, with Seq i and the
// profile's size, at start + i·20 ms, which is its SentAt.
func TestPacketLaneSchedule(t *testing.T) {
	sc := ControlledScenario(3, traffic.G711, 2*sim.Minute, 0, 0)
	s := sim.New(3)
	const start = sim.Time(137 * sim.Millisecond) // as a call started after its association
	sent := 0
	s.Schedule(start, func() {
		s.Train(sc.PacketCount(), packets(sc.Profile, s.Now(), func(p pkt.Packet) {
			want := pkt.Packet{StreamID: 1, Seq: sent, Size: 160, SentAt: start.Add(sim.Duration(sent) * 20 * sim.Millisecond)}
			if p != want || p.SentAt != s.Now() {
				t.Fatalf("packet %d at %v is %+v, want %+v", sent, s.Now(), p, want)
			}
			sent++
		}))
	})
	s.RunAll()
	if sent != 6000 {
		t.Errorf("a 2-minute G.711 lane sent %d packets, want 6000", sent)
	}
}

// TestKeepaliveChecksRunToHorizon: the keepalive check runs every AKT/4
// until the runner stops the simulator, 2 s after the call, not only while
// packets flow. With AKT = 7 s a clean 120 s call makes 14 keepalive
// visits, the last at 120.75 s, after the last packet; checks that stopped
// with the call's 6,000 packets (68 of them) would make 13.
func TestKeepaliveChecksRunToHorizon(t *testing.T) {
	sc := ControlledScenario(1, traffic.G711, 2*sim.Minute, 0, 0)
	res := RunDiversiFi(sc, DiversiFiOptions{ClientConfig: client.Config{AKT: 7 * sim.Second}})
	if res.Client.KeepaliveSwitches != 14 || res.Client.RecoverySwitches != 0 {
		t.Fatalf("%d keepalive and %d recovery visits, want 14 and 0", res.Client.KeepaliveSwitches, res.Client.RecoverySwitches)
	}
	if last := res.Absences[len(res.Absences)-1]; last.From != sim.Time(120750*sim.Millisecond) {
		t.Errorf("the last keepalive visit starts at %v, want 120750ms", last.From)
	}
}

// TestMultiCallNamesAPsByLink: each AP of a multi-link call carries its
// link's name, so a traced call's transmissions tell the links apart.
func TestMultiCallNamesAPsByLink(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	reg.SetSink(obs.NewSink(&buf))
	sim.ObsProvider = func(int64) *obs.Registry { return reg }
	defer func() { sim.ObsProvider = nil }()

	RunMultiCall(ControlledScenario(4, traffic.G711, 2*sim.Second, 0, 0), 4)
	if err := reg.Sink().Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	nodes := map[string]int{}
	scan := bufio.NewScanner(&buf)
	for scan.Scan() {
		ev, err := obs.DecodeEvent(scan.Bytes())
		if err != nil {
			t.Fatalf("%v: %s", err, scan.Text())
		}
		if ev.Ev == obs.EvTx {
			nodes[ev.Node]++
		}
	}
	if len(nodes) != 4 || nodes["A"] == 0 || nodes["B"] == 0 || nodes["m2"] == 0 || nodes["m3"] == 0 {
		t.Errorf("tx events by node %v, want some from each of A, B, m2 and m3", nodes)
	}
}

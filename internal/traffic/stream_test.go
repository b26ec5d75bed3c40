package traffic_test

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// A profile's stream is sent by the call that carries it, as a sim.Train
// lane in core; these tests read it back from the transmissions of a
// traced dual call on clean links, where every packet the stream sends
// reaches AP A and ends in exactly one tx event there.

// txAtA runs a traced G.711 dual call of duration d and returns AP A's tx
// events in trace order.
func txAtA(t *testing.T, seed int64, d sim.Duration) []obs.Event {
	t.Helper()
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	reg.SetSink(obs.NewSink(&buf))
	sim.ObsProvider = func(int64) *obs.Registry { return reg }
	defer func() { sim.ObsProvider = nil }()

	res := core.RunDualCall(core.ControlledScenario(seed, traffic.G711, d, 0, 0))
	res.Release()
	if err := reg.Sink().Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var tx []obs.Event
	scan := bufio.NewScanner(&buf)
	for scan.Scan() {
		ev, err := obs.DecodeEvent(scan.Bytes())
		if err != nil {
			t.Fatalf("%v: %s", err, scan.Text())
		}
		if ev.Ev == obs.EvTx && ev.Node == "A" {
			tx = append(tx, ev)
		}
	}
	return tx
}

// TestSourceEmission: a 200 ms G.711 call sends packets 0…9 in Seq order,
// packet i after its send time i·20 ms and sent out before packet i+1 is
// sent, so the stream keeps one packet per 20 ms from t=0.
func TestSourceEmission(t *testing.T) {
	tx := txAtA(t, 1, 200*sim.Millisecond)
	if len(tx) != 10 {
		t.Fatalf("AP A made %d transmissions, want 10", len(tx))
	}
	for i, ev := range tx {
		sent := sim.Time(i) * sim.Time(traffic.G711.Spacing)
		if ev.Seq != i {
			t.Fatalf("transmission %d carries Seq %d", i, ev.Seq)
		}
		if at := sim.Time(ev.TUS); at <= sent || at >= sent.Add(traffic.G711.Spacing) {
			t.Errorf("packet %d sent at %v went out at %v, outside its 20 ms slot", i, sent, at)
		}
	}
}

// TestTwoMinuteCallPacketCount: the paper's 2-minute G.711 call is 6,000
// packets (§4.2), each sent once.
func TestTwoMinuteCallPacketCount(t *testing.T) {
	if n := core.ControlledScenario(3, traffic.G711, 2*sim.Minute, 0, 0).PacketCount(); n != 6000 {
		t.Fatalf("a 2-minute call has %d packets, want 6000", n)
	}
	tx := txAtA(t, 3, 2*sim.Minute)
	if len(tx) != 6000 {
		t.Fatalf("2-minute call = %d packets, want 6000", len(tx))
	}
	for i, ev := range tx {
		if ev.Seq != i {
			t.Fatalf("transmission %d carries Seq %d", i, ev.Seq)
		}
	}
}

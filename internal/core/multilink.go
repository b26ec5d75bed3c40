package core

import (
	"repro/internal/ap"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The paper replicates over two links ("a primary and a secondary") and
// leaves wider fan-out unexplored. This extension measures how the
// diversity gain scales with the number of links, using the §3.3 finding
// that clients typically see 4+ distinct channels.

// multiChannelPlan assigns extra links to distinct channels: the 2.4 GHz
// 1/6/11 plan first, then 5 GHz.
var multiChannelPlan = []phy.Channel{
	phy.Chan1, phy.Chan11, phy.Chan6, phy.Chan36, phy.Chan48, {Band: phy.Band5G, Number: 157},
}

// multiAPPositions spreads APs around the office perimeter.
var multiAPPositions = []phy.Position{
	{X: 2, Y: 2}, {X: officeW - 2, Y: officeH - 2},
	{X: officeW - 2, Y: 2}, {X: 2, Y: officeH - 2},
	{X: officeW / 2, Y: 1}, {X: officeW / 2, Y: officeH - 1},
}

// RunMultiCall simulates one call received concurrently on n links
// (1 ≤ n ≤ 6) with a dedicated NIC per link, returning per-link traces in
// decreasing call-start RSSI order. trace.Merge over the first k traces
// gives k-link replication.
func RunMultiCall(sc Scenario, n int) []*trace.Trace {
	if n < 1 {
		n = 1
	}
	if n > len(multiAPPositions) {
		n = len(multiAPPositions)
	}
	s := sim.New(sc.Seed)
	// Build the scenario's links and environment, then add extra links
	// beyond the first two on the same environment and client trajectory.
	built := sc.Build(s)
	env := built.Env

	mob := built.Mob
	linkList := []*phy.Link{built.A, built.B}
	rng := s.RNG("multilink/spec")
	for i := 2; i < n; i++ {
		spec := sc.LinkB
		spec.ExtraLossDB = rng.Float64() * 12
		l := phy.NewLink(s.RNG("multilink/link"+string(rune('0'+i))), env, phy.LinkParams{
			Name:      "m" + string(rune('0'+i)),
			Obs:       s.Obs(),
			APPos:     multiAPPositions[i],
			Chan:      multiChannelPlan[i%len(multiChannelPlan)],
			Client:    mob,
			ShadowDB:  spec.ShadowDB,
			ShadowT:   spec.ShadowDecorr,
			FadeGood:  spec.FadeGood,
			FadeBad:   spec.FadeBad,
			MIMOOrder: sc.MIMOOrder,
			ExtraLoss: spec.ExtraLossDB,
		})
		l.SetFadeDepth(spec.FadeDepthDB)
		linkList = append(linkList, l)
	}
	linkList = linkList[:n]

	count := sc.PacketCount()
	traces := make([]*trace.Trace, n)
	aps := make([]*ap.AP, n)
	wires := make([]*netsim.Wire, n)
	enqs := make([]func(pkt.Packet), n)
	for i := range linkList {
		i := i
		traces[i] = trace.New(count, 0, sc.Profile.Spacing)
		aps[i] = ap.New(s, ap.Config{Name: "m", Chan: linkList[i].Channel()},
			linkList[i], s.RNG("multilink/ap"+string(rune('0'+i))), ap.AlwaysListening{},
			func(p pkt.Packet, at sim.Time) { traces[i].RecordArrival(p.Seq, at) })
		wires[i] = netsim.NewWire(s, "mlan"+string(rune('0'+i)), lanLatency, lanJitter, 0)
		enqs[i] = aps[i].Enqueue
	}

	s.Train(count, sim.Lane{At: periodic(sc.Profile.Spacing), Fn: func(seq int) {
		p := pkt.Packet{StreamID: 1, Seq: seq, Size: sc.Profile.PacketBytes, SentAt: s.Now()}
		for i := range aps {
			wires[i].Send(p, enqs[i])
		}
	}})

	// Record RSSI ordering before running (call start).
	type ranked struct {
		rssi float64
		idx  int
	}
	order := make([]ranked, n)
	for i, l := range linkList {
		order[i] = ranked{l.RSSIdBm(0), i}
	}
	s.Run(sim.Time(sc.Duration + 2*sim.Second))

	// Sort traces by descending start RSSI (insertion sort; n ≤ 6).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && order[j].rssi > order[j-1].rssi; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := make([]*trace.Trace, n)
	for i, r := range order {
		out[i] = traces[r.idx]
	}
	return out
}

// MergeK merges the first k traces (k-link replication).
func MergeK(traces []*trace.Trace, k int) *trace.Trace {
	if k < 1 {
		k = 1
	}
	if k > len(traces) {
		k = len(traces)
	}
	out := traces[0]
	for i := 1; i < k; i++ {
		out = trace.Merge(out, traces[i])
	}
	return out
}

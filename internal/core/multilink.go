package core

import (
	"repro/internal/ap"
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
	w := newWorld(sc)
	defer w.release()
	s := w.s
	// Add links beyond the scenario's two on the same environment and
	// client trajectory; the world releases them with the call.
	linkList := []*phy.Link{w.A, w.B}
	rng := s.RNG("multilink/spec")
	for i := 2; i < n; i++ {
		spec := sc.LinkB
		spec.ExtraLossDB = rng.Float64() * 12
		d := string(rune('0' + i))
		linkList = append(linkList, own(w, w.newLink(s, sc, "multilink/link"+d,
			phy.LinkParams{Name: "m" + d, APPos: multiAPPositions[i], Chan: multiChannelPlan[i%len(multiChannelPlan)]}, spec)))
	}
	linkList = linkList[:n]

	count := sc.PacketCount()
	traces := make([]*trace.Trace, n)
	sends := make([]func(pkt.Packet), n)
	for i, l := range linkList {
		d := string(rune('0' + i))
		traces[i] = trace.New(count, 0, sc.Profile.Spacing)
		_, sends[i] = w.leg(l, ap.Config{Name: l.Name()}, "multilink/ap"+d, "mlan"+d, ap.AlwaysListening{}, recorder(traces[i]))
	}

	s.Train(count, packets(sc.Profile, 0, func(p pkt.Packet) {
		for _, send := range sends {
			send(p)
		}
	}))

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

package core

import (
	"repro/internal/ap"
	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The related work the paper contrasts with ([36], Vergetis et al.) uses
// forward error correction over a single link to recover from (non-bursty)
// loss. This file implements that baseline: an XOR parity packet after
// every K data packets. A single loss inside a block is repaired when the
// block's parity arrives — which costs 1/K extra airtime always, and
// cannot repair the bursty multi-packet losses that dominate WiFi (§4.2),
// which is exactly the comparison DiversiFi's reactive replication wins.

// FECResult is one single-link call protected by XOR parity.
type FECResult struct {
	Scenario Scenario
	// Decoded is the post-repair trace (repaired packets appear with the
	// parity packet's arrival time).
	Decoded *trace.Trace
	// Raw is the pre-repair trace of the same run.
	Raw *trace.Trace
	// ParitySent and Repaired count the scheme's cost and benefit.
	ParitySent int
	Repaired   int
}

// RunFEC simulates the stronger link carrying the stream plus one XOR
// parity packet per k data packets.
func RunFEC(sc Scenario, k int) FECResult {
	if k < 2 {
		k = 2
	}
	s := sim.New(sc.Seed)
	links := sc.Build(s)
	link := links.A
	if links.B.RSSIdBm(0) > links.A.RSSIdBm(0) {
		link = links.B
	}
	count := sc.PacketCount()
	raw := trace.New(count, 0, sc.Profile.Spacing)

	// Parity packets ride the same stream with sequence numbers >= count;
	// parity i protects data packets [i*k, i*k+k).
	const parityBase = 1 << 28
	parityArrival := map[int]sim.Time{}
	paritySent := 0

	a := ap.New(s, ap.Config{Name: "fec", Chan: link.Channel()}, link, s.RNG("ap/fec"),
		ap.AlwaysListening{}, func(p pkt.Packet, at sim.Time) {
			if p.Seq >= parityBase {
				parityArrival[p.Seq-parityBase] = at
				return
			}
			raw.RecordArrival(p.Seq, at)
		})
	wire := netsim.NewWire(s, "fecLan", lanLatency, lanJitter, 0)
	enq := a.Enqueue

	s.Train(count, sim.Lane{At: periodic(sc.Profile.Spacing), Fn: func(seq int) {
		p := pkt.Packet{StreamID: 1, Seq: seq, Size: sc.Profile.PacketBytes, SentAt: s.Now()}
		wire.Send(p, enq)
		if (seq+1)%k == 0 {
			// Emit the block's parity right after its last member.
			par := pkt.Packet{
				StreamID: 1,
				Seq:      parityBase + seq/k,
				Size:     sc.Profile.PacketBytes,
				SentAt:   s.Now(),
			}
			wire.Send(par, enq)
		}
	}})
	paritySent = (count + k - 1) / k
	s.Run(sim.Time(sc.Duration + 2*sim.Second))

	// Decode: a block with exactly one missing data packet and a received
	// parity repairs that packet at max(parity arrival, last data arrival).
	decoded := trace.New(count, 0, sc.Profile.Spacing)
	repaired := 0
	for seq := 0; seq < count; seq++ {
		decoded.CopyFrom(raw, seq)
	}
	for block := 0; block*k < count; block++ {
		pAt, ok := parityArrival[block]
		if !ok {
			continue
		}
		missing := -1
		complete := true
		var lastData sim.Time
		for seq := block * k; seq < (block+1)*k && seq < count; seq++ {
			if !raw.Arrived(seq) {
				if missing >= 0 {
					complete = false
					break
				}
				missing = seq
				continue
			}
			if at := raw.ArrivalTime(seq); at > lastData {
				lastData = at
			}
		}
		if !complete || missing < 0 {
			continue
		}
		at := pAt
		if lastData > at {
			at = lastData
		}
		decoded.RecordArrival(missing, at)
		repaired++
	}
	return FECResult{Scenario: sc, Decoded: decoded, Raw: raw, ParitySent: paritySent, Repaired: repaired}
}

// Package traffic defines the workloads of the paper's experiments: the
// G.711-like VoIP stream (64 kbps, 160-byte packets, 20 ms spacing), the
// high-rate interactive stream of §4.5 (5 Mbps, 1000-byte packets, 1.6 ms
// spacing), and the fluid TCP flow used for the coexistence experiment
// (§6.3).
package traffic

import "repro/internal/sim"

// Profile characterises a real-time stream: everything DiversiFi needs to
// size AP queues and set switching timers (§5.2.1).
type Profile struct {
	Name        string
	PayloadType int          // RTP payload type (RFC 3551)
	PacketBytes int          // payload size
	Spacing     sim.Duration // inter-packet gap
	Deadline    sim.Duration // MaxTolerableDelay for the WiFi hop
}

// BitrateKbps returns the stream's nominal payload bitrate.
func (p Profile) BitrateKbps() float64 {
	if p.Spacing <= 0 {
		return 0
	}
	return float64(p.PacketBytes*8) / (float64(p.Spacing) / 1e3)
}

// PacketsPerSecond returns the stream's packet rate.
func (p Profile) PacketsPerSecond() float64 {
	if p.Spacing <= 0 {
		return 0
	}
	return 1e6 / float64(p.Spacing)
}

// APQueueLen returns the AP buffer depth DiversiFi requests for this
// profile: Deadline/Spacing (Algorithm 1's APQueueLen), e.g. 100 ms / 20 ms
// = 5 for G.711.
func (p Profile) APQueueLen() int {
	if p.Spacing <= 0 {
		return 1
	}
	n := int(p.Deadline / p.Spacing)
	if n < 1 {
		n = 1
	}
	return n
}

// The paper's two workloads.
var (
	// G711 is the VoIP stream used in almost every experiment.
	G711 = Profile{
		Name:        "G.711",
		PayloadType: 0, // PCMU
		PacketBytes: 160,
		Spacing:     20 * sim.Millisecond,
		Deadline:    100 * sim.Millisecond,
	}
	// HighRate is the §4.5 video/gaming-class stream: 5 Mbps.
	HighRate = Profile{
		Name:        "HighRate5M",
		PayloadType: 34, // H.263 video, closest RFC 3551 analogue
		PacketBytes: 1000,
		Spacing:     1600 * sim.Microsecond,
		Deadline:    100 * sim.Millisecond,
	}
)

// ProfileByKey returns the workload a flag or spec document names: "g711"
// for G711 or "highrate" for HighRate. It allocates nothing.
func ProfileByKey(key string) (Profile, bool) {
	switch key {
	case "g711":
		return G711, true
	case "highrate":
		return HighRate, true
	}
	return Profile{}, false
}

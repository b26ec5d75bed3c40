// Package nettest reproduces the distributed measurement study of §3.2
// (Table 2): 274 WiFi-connected participants across 22 countries plus 10
// well-connected Azure nodes ran 9224 simulated VoIP calls (64 kbps, 20 ms
// spacing, 2 minutes), directly and through overloaded cloud relays. The
// substitute generates each call's packet-level loss/delay process from
// per-client WiFi quality classes, WAN path properties, and relay
// overload, then scores calls with the same G.711 quality model as the
// rest of the repository.
package nettest

import (
	"repro/internal/sim/rng"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/voip"
)

// CallType is a Table 2 category.
type CallType int

const (
	// EW: WiFi client ↔ well-connected Azure node, direct.
	EW CallType = iota
	// WW: WiFi client ↔ WiFi client, direct.
	WW
	// EWRelayed: client ↔ Azure through an overloaded relay.
	EWRelayed
	// WWRelayed: client ↔ client through an overloaded relay.
	WWRelayed
)

func (c CallType) String() string {
	switch c {
	case EW:
		return "EW"
	case WW:
		return "WW"
	case EWRelayed:
		return "EW-Relayed"
	case WWRelayed:
		return "WW-Relayed"
	default:
		return "?"
	}
}

// PaperCallCounts are the per-category call counts of Table 2.
var PaperCallCounts = map[CallType]int{
	EW:        6953,
	WW:        1240,
	EWRelayed: 798,
	WWRelayed: 233,
}

// Client is one NetTest participant: a WiFi-connected Windows machine in a
// (mostly residential) location.
type Client struct {
	Country int
	// NATRestricted clients cannot establish direct peer connections and
	// fall back to relays — which is why relay pain concentrates on a
	// subset of users rather than spreading uniformly.
	NATRestricted bool
	// WiFi loss process parameters: a Gilbert–Elliott chain at packet
	// granularity (20 ms steps).
	pGoodLoss float64 // per-packet loss probability in the good state
	pBadLoss  float64 // per-packet loss probability in the bad state
	pEnterBad float64 // per-packet probability of entering a bad episode
	pExitBad  float64 // per-packet probability of leaving it
	jitterMs  float64 // WiFi-side delay jitter scale
}

// NewClient draws a participant. Quality classes follow residential WiFi:
// most links are fine, a fraction are mediocre, a few are bad — which is
// what produces the paper's finding that 16.3% of users had PCR ≥ 20%.
func NewClient(rng *rng.Stream, countries int) Client {
	c := Client{Country: rng.Intn(countries), NATRestricted: rng.Float64() < 0.3}
	r := rng.Float64()
	switch {
	case r < 0.55: // good home WiFi: essentially clean
		c.pGoodLoss = 0.0001 + rng.Float64()*0.0004
		c.pBadLoss = 0.12
		c.pEnterBad = 0.00018
		c.pExitBad = 0.12
		c.jitterMs = 2
	case r < 0.85: // mediocre
		c.pGoodLoss = 0.0006 + rng.Float64()*0.002
		c.pBadLoss = 0.35
		c.pEnterBad = 0.002
		c.pExitBad = 0.05
		c.jitterMs = 4
	default: // bad corner of the house / interference
		c.pGoodLoss = 0.003 + rng.Float64()*0.01
		c.pBadLoss = 0.5
		c.pEnterBad = 0.0025
		c.pExitBad = 0.04
		c.jitterMs = 8
	}
	return c
}

// Config sizes the study.
type Config struct {
	Clients   int
	Azure     int
	Countries int
	Counts    map[CallType]int
	Relay     RelayModel
}

// RelayModel captures the overloaded relays of the study.
type RelayModel struct {
	LossMin, LossMax       float64 // uniform random per-call shed rate
	DelayMinMs, DelayMaxMs float64 // added one-way delay
}

// DefaultConfig mirrors the paper's deployment.
func DefaultConfig() Config {
	return Config{
		Clients:   274,
		Azure:     10,
		Countries: 22,
		Counts:    PaperCallCounts,
		Relay: RelayModel{
			LossMin: 0.001, LossMax: 0.07,
			DelayMinMs: 5, DelayMaxMs: 70,
		},
	}
}

// CallResult is one scored call.
type CallResult struct {
	Type   CallType
	Client int // index of the rated (receiving) client
	Q      voip.Quality
}

// Study is a completed NetTest run.
type Study struct {
	Clients []Client
	Results []CallResult
}

// Run executes the study.
func Run(rng *rng.Stream, cfg Config) *Study {
	st := &Study{}
	for i := 0; i < cfg.Clients; i++ {
		st.Clients = append(st.Clients, NewClient(rng, cfg.Countries))
	}
	var restricted []int
	for i, c := range st.Clients {
		if c.NATRestricted {
			restricted = append(restricted, i)
		}
	}
	for _, ct := range []CallType{EW, WW, EWRelayed, WWRelayed} {
		n := cfg.Counts[ct]
		for i := 0; i < n; i++ {
			var recv int
			if (ct == EWRelayed || ct == WWRelayed) && len(restricted) > 0 {
				recv = restricted[rng.Intn(len(restricted))]
			} else {
				recv = rng.Intn(cfg.Clients)
			}
			res := CallResult{Type: ct, Client: recv}
			res.Q = simulateCall(rng, cfg, st.Clients, ct, recv)
			st.Results = append(st.Results, res)
		}
	}
	return st
}

// simulateCall synthesizes the receiver-side packet trace of one 2-minute
// call and scores it.
func simulateCall(rng *rng.Stream, cfg Config, clients []Client, ct CallType, recv int) voip.Quality {
	prof := traffic.G711
	count := int((2 * sim.Minute) / prof.Spacing)
	tr := trace.New(count, 0, prof.Spacing)

	// WAN path: base delay by country distance, small jitter and loss.
	wanBase := 10 + rng.Float64()*65 // ms
	wanLoss := rng.Float64() * 0.002
	relayLoss, relayDelay := 0.0, 0.0
	if ct == EWRelayed || ct == WWRelayed {
		relayLoss = cfg.Relay.LossMin + rng.Float64()*(cfg.Relay.LossMax-cfg.Relay.LossMin)
		relayDelay = cfg.Relay.DelayMinMs + rng.Float64()*(cfg.Relay.DelayMaxMs-cfg.Relay.DelayMinMs)
	}

	// WiFi legs: the receiver's downlink always; the sender's uplink when
	// the peer is also a WiFi client.
	legs := []Client{clients[recv]}
	scale := []float64{1}
	if ct == WW || ct == WWRelayed {
		// The peer's uplink leg contributes too, but uplink VoIP frames
		// are smaller/more robust and the sender sits near its AP more
		// often, so the second leg is discounted.
		legs = append(legs, clients[rng.Intn(len(clients))])
		scale = append(scale, 0.9)
	}
	bad := make([]bool, len(legs))

	for seq := 0; seq < count; seq++ {
		lost := false
		for li, leg := range legs {
			if bad[li] {
				if rng.Float64() < leg.pExitBad {
					bad[li] = false
				}
			} else if rng.Float64() < leg.pEnterBad*scale[li] {
				bad[li] = true
			}
			p := leg.pGoodLoss * scale[li]
			if bad[li] {
				p = leg.pBadLoss
			}
			if rng.Float64() < p {
				lost = true
			}
		}
		if !lost && wanLoss > 0 && rng.Float64() < wanLoss {
			lost = true
		}
		if !lost && relayLoss > 0 && rng.Float64() < relayLoss {
			lost = true
		}
		if lost {
			continue
		}
		delayMs := wanBase + relayDelay + rng.ExpFloat64()*clients[recv].jitterMs
		tr.RecordArrival(seq, tr.SentTime(seq).Add(sim.FromMillis(delayMs)))
	}
	return voip.Assess(tr, prof)
}

// PCRByType returns Table 2: per-category PCR plus the overall PCR.
func (st *Study) PCRByType() (byType map[CallType]float64, counts map[CallType]int, overall float64) {
	byType = map[CallType]float64{}
	counts = map[CallType]int{}
	poor := map[CallType]int{}
	totalPoor := 0
	for _, r := range st.Results {
		counts[r.Type]++
		if r.Q.Poor {
			poor[r.Type]++
			totalPoor++
		}
	}
	for ct, n := range counts {
		byType[ct] = float64(poor[ct]) / float64(n)
	}
	overall = float64(totalPoor) / float64(len(st.Results))
	return byType, counts, overall
}

// UserStats reports the §3.2 spatial distribution: the fraction of users
// with at least one poor call and the fraction with per-user PCR ≥ 20%.
func (st *Study) UserStats() (anyPoor, pcrOver20 float64) {
	calls := map[int]int{}
	poor := map[int]int{}
	for _, r := range st.Results {
		calls[r.Client]++
		if r.Q.Poor {
			poor[r.Client]++
		}
	}
	users := 0
	withPoor, over20 := 0, 0
	for u, n := range calls {
		users++
		if poor[u] > 0 {
			withPoor++
		}
		if float64(poor[u])/float64(n) >= 0.20 {
			over20++
		}
	}
	if users == 0 {
		return 0, 0
	}
	return float64(withPoor) / float64(users), float64(over20) / float64(users)
}

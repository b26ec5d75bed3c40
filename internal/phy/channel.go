// Package phy models the wireless physical layer that DiversiFi's
// experiments run over: log-distance path loss with lognormal shadowing,
// bursty Gilbert–Elliott fading, 802.11 rate/SNR error curves, MIMO
// diversity, and the impairment sources used in the paper's evaluation
// (microwave interference, client mobility, weak links, and congestion).
//
// The package substitutes for the real radios in the paper's testbed. What
// matters for every experiment is the *packet-level loss and delay process*
// each link produces and how those processes correlate across links; the
// models here are chosen to reproduce exactly those properties.
package phy

import "fmt"

// Band is a WiFi frequency band.
type Band int

const (
	// Band2G4 is the 2.4 GHz ISM band (channels 1–14).
	Band2G4 Band = iota
	// Band5G is the 5 GHz band (channels 36–165).
	Band5G
)

func (b Band) String() string {
	switch b {
	case Band2G4:
		return "2.4GHz"
	case Band5G:
		return "5GHz"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// Channel identifies a WiFi channel: a band plus a channel number.
type Channel struct {
	Band   Band
	Number int
}

func (c Channel) String() string { return fmt.Sprintf("%s/ch%d", c.Band, c.Number) }

// Valid reports whether the channel number is plausible for its band.
func (c Channel) Valid() bool {
	switch c.Band {
	case Band2G4:
		return c.Number >= 1 && c.Number <= 14
	case Band5G:
		return c.Number >= 36 && c.Number <= 165
	default:
		return false
	}
}

// Overlaps reports whether two channels interfere with each other. On
// 2.4 GHz, channels closer than 5 apart overlap spectrally (hence the
// classic 1/6/11 plan); on 5 GHz only identical channels collide.
func (c Channel) Overlaps(o Channel) bool {
	if c.Band != o.Band {
		return false
	}
	if c.Band == Band2G4 {
		d := c.Number - o.Number
		if d < 0 {
			d = -d
		}
		return d < 5
	}
	return c.Number == o.Number
}

// Common channel constants used throughout the experiments. The paper's
// evaluation places the two APs on 2.4 GHz channels 1 and 11.
var (
	Chan1  = Channel{Band2G4, 1}
	Chan6  = Channel{Band2G4, 6}
	Chan11 = Channel{Band2G4, 11}
	Chan36 = Channel{Band5G, 36}
	Chan48 = Channel{Band5G, 48}
)

package phy

import "math"

// Position is a point in the simulated floor plan, in meters.
type Position struct {
	X, Y float64
}

// DistanceTo returns the Euclidean distance between two positions, floored
// at 0.5 m so the near-field never produces absurd RSSI.
func (p Position) DistanceTo(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	d := math.Sqrt(dx*dx + dy*dy)
	if d < 0.5 {
		d = 0.5
	}
	return d
}

// Radio parameters. These follow typical indoor 802.11 link-budget numbers;
// the experiments depend on the resulting SNR ranges, not the exact values.
const (
	// TxPowerDBm is the transmit power used by APs and clients.
	TxPowerDBm = 20.0
	// NoiseFloorDBm is the thermal noise floor for a 20 MHz channel.
	NoiseFloorDBm = -95.0
	// RefLossDB is the path loss at the 1 m reference distance.
	RefLossDB = 40.0
	// PathLossExponent is the indoor log-distance exponent (walls, cubicles).
	PathLossExponent = 3.0
	// Band5GExtraLossDB penalises 5 GHz propagation relative to 2.4 GHz.
	Band5GExtraLossDB = 6.0
)

// PathLossDB returns the deterministic log-distance path loss in dB for a
// link of the given length on the given band.
func PathLossDB(distanceM float64, band Band) float64 {
	if distanceM < 0.5 {
		distanceM = 0.5
	}
	loss := RefLossDB + 10*PathLossExponent*math.Log10(distanceM)
	if band == Band5G {
		loss += Band5GExtraLossDB
	}
	return loss
}

// MeanRSSIdBm returns the mean received signal strength for a link, before
// shadowing and fading.
func MeanRSSIdBm(distanceM float64, band Band) float64 {
	return TxPowerDBm - PathLossDB(distanceM, band)
}

// Rate is an 802.11 PHY rate with the SNR it needs.
type Rate struct {
	Mbps      float64
	MinSNRdB  float64 // SNR at which the rate becomes usable
	Name      string  // e.g. "MCS3"
	DataBytes int     // unused by selection; kept for airtime tables
}

// RateTable is a simplified single-stream 802.11n MCS ladder. Rate
// adaptation in internal/mac walks this table.
var RateTable = []Rate{
	{6.5, 5, "MCS0", 0},
	{13, 8, "MCS1", 0},
	{19.5, 11, "MCS2", 0},
	{26, 14, "MCS3", 0},
	{39, 18, "MCS4", 0},
	{52, 22, "MCS5", 0},
	{58.5, 26, "MCS6", 0},
	{65, 28, "MCS7", 0},
}

// BestRateForSNR returns the fastest rate whose SNR requirement is met with
// a 3 dB margin, falling back to the most robust rate.
func BestRateForSNR(snrDB float64) Rate {
	best := RateTable[0]
	for _, r := range RateTable {
		if snrDB >= r.MinSNRdB+3 {
			best = r
		}
	}
	return best
}

// FrameErrorProb returns the probability that a single frame transmission
// attempt at the given rate fails due to channel noise, given the
// instantaneous SNR. It is a logistic curve centred slightly below the
// rate's requirement: comfortably above threshold frames almost always
// succeed, a few dB below they almost always fail.
func FrameErrorProb(snrDB float64, rate Rate) float64 {
	// Even at very high SNR there is a small residual attempt-error floor
	// (preamble misses, unlucky slots) of ~0.5%.
	const floor, ceiling = 0.005, 0.999
	x := 1.4 * (snrDB - rate.MinSNRdB)
	// Where a clamp decides the result, skip the Exp. exp(5.3) > 200, so
	// x > 5.3 gives p < 1/201 < floor; exp(-7) < 0.00092, so x < -7 gives
	// p > 1/1.00092 > 0.99908 > ceiling.
	if x > 5.3 {
		return floor
	}
	if x < -7 {
		return ceiling
	}
	p := 1 / (1 + math.Exp(x))
	if p < floor {
		return floor
	}
	if p > ceiling {
		return ceiling
	}
	return p
}

// AirtimeUS returns the time in microseconds to transmit a frame of the
// given payload size at the given rate, including fixed PHY/MAC framing
// overhead (preamble, SIFS, ACK).
func AirtimeUS(payloadBytes int, rate Rate) float64 {
	const fixedOverheadUS = 80 // preamble + PLCP + SIFS + ACK, simplified
	if rate.Mbps <= 0 {
		return fixedOverheadUS
	}
	bits := float64(payloadBytes+36) * 8 // MAC header + FCS
	return fixedOverheadUS + bits/rate.Mbps
}

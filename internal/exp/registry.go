package exp

import "fmt"

// Kind classifies a registered experiment. The experiments CLI uses it to
// decide what "all" regenerates (everything except calibration sweeps,
// which are diagnostic rather than part of the paper's output), and the
// sweep engine's experiments source accepts it as a selector.
type Kind string

const (
	KindTable       Kind = "table"
	KindFigure      Kind = "figure"
	KindScaling     Kind = "scaling"
	KindAblation    Kind = "ablation"
	KindExtension   Kind = "extension"
	KindCalibration Kind = "calibration"
)

// Spec is one registered experiment: everything a runner needs to execute
// it at an arbitrary (corpus size, seed) point. Specs are the single
// source of truth shared by cmd/experiments and the sweep engine's
// experiments source (internal/sweep, which cmd/campaign drives), so the
// two CLIs cannot drift apart.
type Spec struct {
	ID       string
	Kind     Kind
	Title    string // one-line description for listings
	DefaultN int    // paper's corpus size; 0 = experiment has no size knob
	Run      func(n int, seed int64) *Result
}

// withN registers an experiment parameterised by corpus size; n <= 0
// selects the paper's default size.
func withN(id string, kind Kind, title string, defN int, f func(int, int64) *Result) Spec {
	return Spec{ID: id, Kind: kind, Title: title, DefaultN: defN,
		Run: func(n int, seed int64) *Result {
			if n <= 0 {
				n = defN
			}
			return f(n, seed)
		}}
}

// seedOnly registers an experiment whose corpus size is fixed by the paper.
func seedOnly(id string, kind Kind, title string, f func(int64) *Result) Spec {
	return Spec{ID: id, Kind: kind, Title: title,
		Run: func(_ int, seed int64) *Result { return f(seed) }}
}

// Registry returns every experiment in canonical presentation order: the
// paper's tables and figures as cmd/experiments has always emitted them,
// then the ablations and extensions, then the calibration sweeps. The
// returned slice is freshly allocated; callers may reorder it.
func Registry() []Spec {
	return []Spec{
		seedOnly("table1", KindTable, "VoIP-service PCR by last-hop type", Table1),
		seedOnly("table2", KindTable, "NetTest PCR by category", Table2),
		seedOnly("fig1", KindFigure, "BSSID/channel availability survey", Figure1),
		withN("fig2a", KindFigure, "worst-window CDF, selection vs replication", 458, Figure2a),
		withN("fig2b", KindFigure, "worst-window CDF vs Divert", 458, Figure2b),
		withN("fig2c", KindFigure, "temporal replication CDF", 458, Figure2c),
		withN("fig2d", KindFigure, "high-rate stream CDF", 44, Figure2d),
		withN("fig2e", KindFigure, "single-AP lower bound CDF", 80, Figure2e),
		seedOnly("fig3", KindFigure, "loss burstiness", Figure3),
		withN("fig4", KindFigure, "auto- vs cross-link loss correlation", 458, Figure4),
		withN("fig5", KindFigure, "per-call loss asymmetry", 458, Figure5),
		withN("fig6", KindFigure, "PCR by impairment class", 60, Figure6),
		seedOnly("fig7", KindFigure, "system architecture (schematic)",
			func(int64) *Result { return Figure7() }),
		withN("fig8", KindFigure, "single-NIC DiversiFi worst-window CDF", 61, Figure8),
		withN("fig9", KindFigure, "residual loss breakdown", 61, Figure9),
		withN("fig10", KindFigure, "TCP coexistence", 26, Figure10),
		withN("overhead", KindScaling, "airtime overhead accounting", 61, Overhead),
		seedOnly("table3", KindTable, "recovery delay components", Table3),
		seedOnly("mbscale", KindScaling, "middlebox scaling", MiddleboxScaling),

		withN("ablation-queue-policy", KindAblation, "AP queue policy", 40, AblationQueuePolicy),
		withN("ablation-queue-size", KindAblation, "AP queue size", 40, AblationQueueSize),
		withN("ablation-switch-timing", KindAblation, "switch timing budget", 40, AblationSwitchTiming),
		withN("ablation-keepalive", KindAblation, "keepalive interval", 40, AblationKeepalive),
		withN("ablation-plt", KindAblation, "packet-loss threshold", 40, AblationPLT),
		withN("ablation-playout", KindAblation, "playout buffer", 40, AblationPlayout),
		withN("ablation-hwbatch", KindAblation, "hardware-queue batching", 40, AblationHWBatch),
		withN("ablation-backoff", KindAblation, "fetch backoff", 40, AblationBackoff),

		withN("uplink", KindExtension, "uplink replication", 40, Uplink),
		withN("fec", KindExtension, "FEC vs buffered replication", 60, FECComparison),
		withN("links", KindExtension, "diversity vs link count", 60, DiversityVsLinks),
		withN("edca", KindExtension, "EDCA priority interaction", 50, EDCA),
		withN("handoff", KindExtension, "handoff robustness", 60, Handoff),
		withN("validate", KindExtension, "headline-claim assertions", 200, Validate),

		withN("calibrate", KindCalibration, "impairment-severity calibration sweep", 120,
			func(n int, seed int64) *Result {
				return &Result{ID: "calibrate", Title: "calibration sweep",
					Plots: []string{Calibrate(n, seed)}}
			}),
		withN("calibrate-imp", KindCalibration, "per-impairment calibration", 40,
			func(n int, seed int64) *Result {
				return &Result{ID: "calibrate-imp", Title: "per-impairment calibration",
					Plots: []string{CalibrateImpairments(n, seed)}}
			}),
	}
}

// Lookup returns the spec with the given id.
func Lookup(id string) (Spec, error) {
	for _, s := range Registry() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown experiment %q", id)
}

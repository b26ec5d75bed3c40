package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/exp"
)

// DensityExperiment is the density-axis label of experiments-source cells,
// which read <id>/<kind>/experiment.
const DensityExperiment = "experiment"

// experimentKeySchema heads every experiment job key: the schema the
// registry's cache entries have always been addressed under, so old
// entries still hit.
const experimentKeySchema = "campaign-v1"

// normalizeExperiments validates the experiments source — selectors, the
// seed axis and n, nothing else — and rewrites the selectors as ids in
// registry order, without duplicates, so it is idempotent.
func (s *Spec) normalizeExperiments() error {
	if len(s.Impairments)+len(s.DeviceClasses)+len(s.APDensities) > 0 || len(s.Scenarios) > 0 {
		return fmt.Errorf("sweep: the experiments source is mutually exclusive with impairments/device_classes/ap_densities/scenarios")
	}
	if s.Profile != "" || s.Severity != 0 || s.DurationS != 0 {
		return fmt.Errorf("sweep: profile, severity and duration_s do not apply to the experiments source (each experiment fixes its own)")
	}
	if s.Seeds.Count <= 0 {
		return fmt.Errorf("sweep: seeds.count must be positive (got %d)", s.Seeds.Count)
	}
	if s.N < 0 {
		return fmt.Errorf("sweep: n must be >= 0 (got %d)", s.N)
	}
	registry := exp.Registry()
	picked := map[string]bool{}
	for _, tok := range s.Experiments {
		tok = strings.TrimSpace(tok)
		matched := tok == ""
		for _, e := range registry {
			if tok == "all" || tok == string(e.Kind) || tok == e.ID {
				picked[e.ID] = true
				matched = true
			}
		}
		if !matched {
			return fmt.Errorf("sweep: unknown experiment %q (want an id, a kind or all)", tok)
		}
	}
	s.Experiments, s.exps = nil, nil
	for _, e := range registry {
		if picked[e.ID] {
			s.Experiments = append(s.Experiments, e.ID)
			s.exps = append(s.exps, e)
		}
	}
	if len(s.exps) == 0 {
		return fmt.Errorf("sweep: experiments selects nothing")
	}
	return nil
}

// corpusN is an experiment job's effective corpus size: the spec's n for a
// sized experiment when set, else the paper's size (0 for an unsized one).
func (j Job) corpusN() int {
	n := j.experiment.DefaultN
	if j.spec.N > 0 && n > 0 {
		n = j.spec.N
	}
	return n
}

func (j Job) experimentKey() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|id=%s|seed=%d|n=%d",
		experimentKeySchema, j.experiment.ID, j.Seed, j.corpusN())))
	return hex.EncodeToString(h[:16])
}

// Name labels the job in the fleet view and in progress lines: the
// experiment id for the experiments source, the cell otherwise.
func (j Job) Name() string {
	if j.experiment != nil {
		return j.experiment.ID
	}
	return j.CellKey()
}

// renderResult prints a result as `experiments all` does: rendered plus a
// blank line, or a calibration sweep's free-form plots raw.
func renderResult(r *exp.Result) string {
	if e, err := exp.Lookup(r.ID); err == nil && e.Kind == exp.KindCalibration {
		return strings.Join(r.Plots, "")
	}
	return r.Render() + "\n"
}

// Package sweep is the repository's job engine: a declarative sweep spec
// expands a grid of impairment × device class × AP density × seed range
// into a deterministic, content-addressed job stream; jobs run real
// simulator calls whose per-call quality metrics aggregate into mergeable
// sketches (internal/sketch), so a million-job sweep summarizes in
// O(cells × compression) memory with no per-job record retention. Two
// other job sources share the engine: an embedded scenario-v1 corpus, and
// the registered experiments of internal/exp (the paper's tables and
// figures), whose results ride the aggregate to the summary.
//
// The engine has three moving parts:
//
//   - Spec/Grid: the declarative grid and its lazy job stream. A 10^6-job
//     sweep never materializes a job slice — JobAt(i) computes any grid
//     point from its index alone.
//   - Runner/Aggregate: executes jobs (through the shared content-addressed
//     campaign cache) and folds each call's metrics into per-cell sketch
//     groups whose merge is deterministic and order-independent.
//   - Coordinator/Worker: lease-based multi-process sharding over the
//     existing HTTP control plane (internal/obs/expose). Workers pull job
//     leases, heartbeat, and report merged sketches; the coordinator
//     re-leases expired work, so a dead worker costs latency, not data.
//
// Determinism contract: for a fixed spec, the merged Summary's cells —
// counts, poor-call counts, and every sketch — are identical no matter how
// many workers ran the sweep or how leases were re-assigned. Summary.
// Fingerprint hashes exactly that deterministic content; timing fields and
// executed/cached splits are telemetry.
package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// SpecSchema versions the spec document and is folded into every job key.
const SpecSchema = "sweep-v1"

// DeviceClass maps a population device class onto simulator knobs: PC-class
// hardware gets 2×2 MIMO spatial diversity, low-end mobile a single chain.
type DeviceClass struct {
	Name      string
	MIMOOrder int
}

// APDensity maps deployment density onto impairment severity: a denser AP
// deployment means shorter links and milder impairments (the §6 office at
// ~0.7, the paper's "wild" corpus at 1.0, sparse coverage worse).
type APDensity struct {
	Name     string
	Severity float64
}

var (
	deviceClasses = []DeviceClass{
		{Name: "pc", MIMOOrder: 2},
		{Name: "mobile", MIMOOrder: 1},
	}
	apDensities = []APDensity{
		{Name: "dense", Severity: 0.7},
		{Name: "typical", Severity: 1.0},
		{Name: "sparse", Severity: 1.3},
	}
)

// DeviceClassNames lists the known device classes in canonical order.
func DeviceClassNames() []string {
	out := make([]string, len(deviceClasses))
	for i, d := range deviceClasses {
		out[i] = d.Name
	}
	return out
}

// APDensityNames lists the known AP densities in canonical order.
func APDensityNames() []string {
	out := make([]string, len(apDensities))
	for i, d := range apDensities {
		out[i] = d.Name
	}
	return out
}

// ImpairmentNames lists the known impairment classes in canonical order.
func ImpairmentNames() []string {
	out := make([]string, len(core.AllImpairments))
	for i, imp := range core.AllImpairments {
		out[i] = imp.String()
	}
	return out
}

// SeedRange is the per-cell seed axis: Count seeds starting at Start. Every
// (cell, seed) pair is one job.
type SeedRange struct {
	Start int64 `json:"start"`
	Count int64 `json:"count"`
}

// Spec is the declarative sweep description, loaded from JSON. Axes expand
// as a full cross product: impairments × device_classes × ap_densities ×
// seeds. Omitted axes default to every known value; omitted scalar knobs
// to the paper's call shape (G.711, 120 s, severity 1.0).
type Spec struct {
	Name string `json:"name"`
	// Axes.
	Impairments   []string  `json:"impairments,omitempty"`
	DeviceClasses []string  `json:"device_classes,omitempty"`
	APDensities   []string  `json:"ap_densities,omitempty"`
	Seeds         SeedRange `json:"seeds"`
	// Call shape.
	Profile   string  `json:"profile,omitempty"`    // g711 | highrate
	Severity  float64 `json:"severity,omitempty"`   // global scale on density severity
	DurationS float64 `json:"duration_s,omitempty"` // call length in seconds

	// Scenarios embeds a scenario-v1 document (internal/scenario) as an
	// alternative grid: instead of the impairment × device-class ×
	// AP-density cross product, the sweep runs every generated scenario of
	// the embedded spec, crossed with the seed axis (scenario-major,
	// seed-minor). The embedded spec owns the call shape — profile,
	// duration, severity — so those knobs must be left to it. Mutually
	// exclusive with the classic axes.
	Scenarios json.RawMessage `json:"scenarios,omitempty"`

	// Experiments selects registered experiments (internal/exp) as the job
	// source, crossed with the seed axis: ids, kind names (table, figure,
	// scaling, ablation, extension, calibration) or "all". Each experiment
	// fixes its own call shape, so the grid axes, scenarios, profile,
	// severity and duration_s must be left out.
	Experiments []string `json:"experiments,omitempty"`
	// N overrides the corpus size of sized experiments (0 = the paper's
	// size). Only the experiments source takes it.
	N int `json:"n,omitempty"`

	// scn is the parsed embedded scenario spec (set by normalize).
	scn *scenario.Spec
	// exps are the selected experiments in registry order (set by
	// normalize).
	exps []exp.Spec
}

// ScenarioSpec returns the parsed embedded scenario spec, or nil when the
// sweep uses the classic axes.
func (s *Spec) ScenarioSpec() *scenario.Spec { return s.scn }

// DensityScenario is the density-axis label of scenario-axis cells: the
// embedded spec controls topology itself, so the grid has one pseudo
// density.
const DensityScenario = "scenario"

// ParseSpec decodes and validates a spec document, applying defaults.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: parse spec: %w", err)
	}
	// A second document (or trailing garbage, a stray '}' or ']' included)
	// is a malformed spec, not an extension point.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("sweep: parse spec: trailing content after document")
	}
	if err := s.normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return ParseSpec(data)
}

// normalize applies defaults and validates every axis value. It is
// idempotent: a spec that already passed normalize (e.g. one received over
// the control plane) normalizes to itself.
func (s *Spec) normalize() error {
	if s.Name == "" {
		return fmt.Errorf("sweep: spec needs a name")
	}
	if len(s.Experiments) > 0 {
		return s.normalizeExperiments()
	}
	if s.N != 0 {
		return fmt.Errorf("sweep: n applies only to the experiments source")
	}
	if len(s.Scenarios) > 0 {
		return s.normalizeScenarios()
	}
	if len(s.Impairments) == 0 {
		s.Impairments = ImpairmentNames()
	}
	if len(s.DeviceClasses) == 0 {
		s.DeviceClasses = DeviceClassNames()
	}
	if len(s.APDensities) == 0 {
		s.APDensities = APDensityNames()
	}
	if s.Seeds.Count <= 0 {
		return fmt.Errorf("sweep: seeds.count must be positive (got %d)", s.Seeds.Count)
	}
	if s.Profile == "" {
		s.Profile = "g711"
	}
	if _, ok := traffic.ProfileByKey(s.Profile); !ok {
		return fmt.Errorf("sweep: unknown profile %q (known: g711, highrate)", s.Profile)
	}
	if s.Severity == 0 {
		s.Severity = 1.0
	}
	if s.Severity < 0 {
		return fmt.Errorf("sweep: severity must be positive")
	}
	if s.DurationS == 0 {
		s.DurationS = 120
	}
	if s.DurationS < 1 {
		return fmt.Errorf("sweep: duration_s must be >= 1")
	}
	seen := map[string]bool{}
	for _, name := range s.Impairments {
		if _, ok := core.ImpairmentByName(name); !ok {
			return fmt.Errorf("sweep: unknown impairment %q (known: %s)",
				name, strings.Join(ImpairmentNames(), ", "))
		}
		if seen["i"+name] {
			return fmt.Errorf("sweep: duplicate impairment %q", name)
		}
		seen["i"+name] = true
	}
	for _, name := range s.DeviceClasses {
		if deviceByName(name) == nil {
			return fmt.Errorf("sweep: unknown device class %q (known: %s)",
				name, strings.Join(DeviceClassNames(), ", "))
		}
		if seen["d"+name] {
			return fmt.Errorf("sweep: duplicate device class %q", name)
		}
		seen["d"+name] = true
	}
	for _, name := range s.APDensities {
		if densityByName(name) == nil {
			return fmt.Errorf("sweep: unknown ap density %q (known: %s)",
				name, strings.Join(APDensityNames(), ", "))
		}
		if seen["a"+name] {
			return fmt.Errorf("sweep: duplicate ap density %q", name)
		}
		seen["a"+name] = true
	}
	return nil
}

// normalizeScenarios validates the scenario-axis form of the spec: an
// embedded scenario-v1 document plus the seed axis, nothing else.
func (s *Spec) normalizeScenarios() error {
	if len(s.Impairments)+len(s.DeviceClasses)+len(s.APDensities) > 0 {
		return fmt.Errorf("sweep: the scenarios axis is mutually exclusive with impairments/device_classes/ap_densities")
	}
	scn, err := scenario.DecodeSpec(s.Scenarios)
	if err != nil {
		return fmt.Errorf("sweep: scenarios: %w", err)
	}
	if s.Seeds.Count <= 0 {
		return fmt.Errorf("sweep: seeds.count must be positive (got %d)", s.Seeds.Count)
	}
	// The embedded spec owns the call shape; the sweep-level knobs must be
	// omitted, or (after a normalize round trip) agree with it exactly.
	if s.Profile != "" && s.Profile != scn.Profile {
		return fmt.Errorf("sweep: profile %q conflicts with the embedded scenario spec's %q (omit it)",
			s.Profile, scn.Profile)
	}
	if s.DurationS != 0 && s.DurationS != scn.DurationS {
		return fmt.Errorf("sweep: duration_s %g conflicts with the embedded scenario spec's %g (omit it)",
			s.DurationS, scn.DurationS)
	}
	if s.Severity != 0 && s.Severity != 1 {
		return fmt.Errorf("sweep: severity is owned by the embedded scenario spec (omit it)")
	}
	s.scn = scn
	s.Profile = scn.Profile
	s.DurationS = scn.DurationS
	s.Severity = 1
	return nil
}

func deviceByName(name string) *DeviceClass {
	for i := range deviceClasses {
		if deviceClasses[i].Name == name {
			return &deviceClasses[i]
		}
	}
	return nil
}

func densityByName(name string) *APDensity {
	for i := range apDensities {
		if apDensities[i].Name == name {
			return &apDensities[i]
		}
	}
	return nil
}

// Hash returns the spec's canonical fingerprint: a hash over the
// normalized document, so two textually different but semantically equal
// specs (axis defaults spelled out or omitted) share job streams.
func (s *Spec) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|name=%s|prof=%s|sev=%g|dur=%g|seeds=%d+%d",
		SpecSchema, s.Name, s.Profile, s.Severity, s.DurationS, s.Seeds.Start, s.Seeds.Count)
	fmt.Fprintf(h, "|imp=%s|dev=%s|dens=%s",
		strings.Join(s.Impairments, ","), strings.Join(s.DeviceClasses, ","),
		strings.Join(s.APDensities, ","))
	if s.scn != nil {
		// The scenario spec's canonical hash already covers its whole
		// normalized document, so two sweeps embedding semantically equal
		// scenario documents share job streams.
		fmt.Fprintf(h, "|scn=%s", s.scn.Hash())
	}
	if s.exps != nil {
		fmt.Fprintf(h, "|exp=%s|n=%d", strings.Join(s.Experiments, ","), s.N)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// CellCount returns how many (impairment, device, density) cells the grid
// can produce. For the classic axes and the experiments source (one cell
// per experiment) Total() = CellCount() × Seeds.Count; for the scenarios
// axis the cells are the cross product of the embedded spec's impairment
// and device mixes (an upper bound — a small corpus may not realize every
// cell) and Total() counts scenarios × seeds instead.
func (s *Spec) CellCount() int64 {
	if s.exps != nil {
		return int64(len(s.exps))
	}
	if s.scn != nil {
		return int64(len(s.CellKeys()))
	}
	return int64(len(s.Impairments)) * int64(len(s.DeviceClasses)) * int64(len(s.APDensities))
}

// Total returns the grid's job count.
func (s *Spec) Total() int64 {
	if s.scn != nil {
		return int64(s.scn.Count) * s.Seeds.Count
	}
	return s.CellCount() * s.Seeds.Count
}

// Grid describes the spec's job-stream shape for progress headers. The
// two axis forms factor differently: classic grids are cells × seeds,
// scenario-axis grids are scenarios × seeds (cells there are only an
// aggregation bound, not a factor of the job count).
func (s *Spec) Grid() string {
	if s.exps != nil {
		return fmt.Sprintf("%d experiments × %d seeds = %d jobs",
			len(s.exps), s.Seeds.Count, s.Total())
	}
	if s.scn != nil {
		return fmt.Sprintf("%d scenarios × %d seeds = %d jobs",
			s.scn.Count, s.Seeds.Count, s.Total())
	}
	return fmt.Sprintf("%d cells × %d seeds = %d jobs",
		s.CellCount(), s.Seeds.Count, s.Total())
}

// CellKeys returns every cell key in canonical (spec axis) order.
func (s *Spec) CellKeys() []string {
	var out []string
	if s.exps != nil {
		for _, e := range s.exps {
			out = append(out, cellKey(e.ID, string(e.Kind), DensityExperiment))
		}
	} else if s.scn != nil {
		for _, imp := range s.scn.ImpairmentMix() {
			for _, dev := range s.scn.DeviceMix() {
				out = append(out, cellKey(imp.Name, dev.Name, DensityScenario))
			}
		}
	} else {
		out = make([]string, 0, s.CellCount())
		for _, imp := range s.Impairments {
			for _, dev := range s.DeviceClasses {
				for _, dens := range s.APDensities {
					out = append(out, cellKey(imp, dev, dens))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// cellKey names one grid cell. Keys sort lexically in the summary.
func cellKey(imp, dev, dens string) string {
	return imp + "/" + dev + "/" + dens
}

// Job is one grid point: a fully determined simulated call, or one
// registered experiment at one seed. Jobs are derived on demand from their
// index — the stream is never materialized. Impairment, Device and Density
// name the job's cell; an experiment job's cell is its id, its kind and
// DensityExperiment.
type Job struct {
	Index      int64
	Impairment string
	Device     string
	Density    string
	Seed       int64
	// ScenarioIndex is the index into the embedded scenario spec's corpus
	// (scenario-axis sweeps only; 0 otherwise).
	ScenarioIndex int64

	spec       *Spec
	experiment *exp.Spec // experiments source only
}

// JobAt computes the grid point at index i (0 ≤ i < Total). The layout is
// impairment-major, seed-minor, so consecutive indices share a cell —
// lease batches aggregate mostly within one cell, which keeps worker
// reports small.
func (s *Spec) JobAt(i int64) (Job, error) {
	if i < 0 || i >= s.Total() {
		return Job{}, fmt.Errorf("sweep: job index %d out of range [0,%d)", i, s.Total())
	}
	if s.exps != nil {
		e := &s.exps[i/s.Seeds.Count]
		return Job{
			Index:      i,
			Impairment: e.ID,
			Device:     string(e.Kind),
			Density:    DensityExperiment,
			Seed:       s.Seeds.Start + i%s.Seeds.Count,
			spec:       s,
			experiment: e,
		}, nil
	}
	if s.scn != nil {
		seedIdx := i % s.Seeds.Count
		scnIdx := i / s.Seeds.Count
		m := s.scn.MetaAt(int(scnIdx))
		return Job{
			Index:         i,
			Impairment:    m.Impairment.String(),
			Device:        m.Device,
			Density:       DensityScenario,
			Seed:          s.Seeds.Start + seedIdx,
			ScenarioIndex: scnIdx,
			spec:          s,
		}, nil
	}
	seedIdx := i % s.Seeds.Count
	rest := i / s.Seeds.Count
	nd := int64(len(s.APDensities))
	nc := int64(len(s.DeviceClasses))
	dens := rest % nd
	rest /= nd
	dev := rest % nc
	imp := rest / nc
	return Job{
		Index:      i,
		Impairment: s.Impairments[imp],
		Device:     s.DeviceClasses[dev],
		Density:    s.APDensities[dens],
		Seed:       s.Seeds.Start + seedIdx,
		spec:       s,
	}, nil
}

// CellKey returns the job's (impairment, device, density) cell.
func (j Job) CellKey() string { return cellKey(j.Impairment, j.Device, j.Density) }

// Key returns the job's content address. It hashes only the physics of the
// call — impairment, device, density severity, profile, duration, seed —
// never the spec name or axis layout, so overlapping grids from different
// specs share cache entries. An experiment job's key covers its id, seed
// and effective corpus size.
func (j Job) Key() string {
	if j.experiment != nil {
		return j.experimentKey()
	}
	var buf [keyLen]byte
	return string(j.appendKey(buf[:0]))
}

// keyLen is the length of a grid or scenario job's key: 16 hash bytes in
// hex.
const keyLen = 32

// appendKey appends a grid or scenario job's key to dst. Its hash input,
// built in a stack buffer, is exactly the text fmt.Sprintf wrote for
// "%s|scn=%s|i=%d|seed=%d" and "%s|imp=%s|dev=%s|sev=%.6g|prof=%s|dur=%g|seed=%d".
func (j Job) appendKey(dst []byte) []byte {
	var in [192]byte
	b := append(in[:0], SpecSchema...)
	if j.spec.scn != nil {
		// The scenario spec hash covers the whole generated space, so
		// (hash, index, seed) is the complete physics of the call.
		b = append(append(b, "|scn="...), j.spec.scn.Hash()...)
		b = strconv.AppendInt(append(b, "|i="...), j.ScenarioIndex, 10)
	} else {
		sev := j.spec.Severity * densityByName(j.Density).Severity
		b = append(append(b, "|imp="...), j.Impairment...)
		b = append(append(b, "|dev="...), j.Device...)
		b = strconv.AppendFloat(append(b, "|sev="...), sev, 'g', 6, 64)
		b = append(append(b, "|prof="...), j.spec.Profile...)
		b = strconv.AppendFloat(append(b, "|dur="...), j.spec.DurationS, 'g', -1, 64)
	}
	b = strconv.AppendInt(append(b, "|seed="...), j.Seed, 10)
	h := sha256.Sum256(b)
	var out [keyLen]byte
	hex.Encode(out[:], h[:keyLen/2])
	return append(dst, out[:]...)
}

// seeds derives the job's two independent seed streams from its content
// key: one for the corpus-level scenario draw (geometry, link parameters),
// one for the call's in-simulator randomness.
func (j Job) seeds() (scenario, call int64) {
	var in [len("seeds|") + keyLen]byte
	h := sha256.Sum256(j.appendKey(append(in[:0], "seeds|"...)))
	scenario = int64(binary.LittleEndian.Uint64(h[0:8]))
	call = int64(binary.LittleEndian.Uint64(h[8:16]))
	return scenario, call
}

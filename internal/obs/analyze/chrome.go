package analyze

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
)

// Chrome trace-event export: render one pass over a JSONL trace
// (docs/OBSERVABILITY.md) in the Trace Event Format that chrome://tracing
// and Perfetto load, so a recovery episode, a lease's churn or an alert's
// lifetime can be inspected on a zoomable timeline instead of grep.
//
// Layout: one process (pid) per run label, named after the run, and one
// thread (tid) per track within the run. Each family draws on its own
// tracks — packet nodes and episode tracks (packets.go), one "worker" lane
// per node (fleet.go), one "rule" lane per alert rule (slo.go) — after the
// metadata, in family order.
//
// Output is deterministic for a given input: each family emits in input
// order, process and thread ids are assigned in sorted (run, track) order,
// and every JSON object uses fixed field order.

// chromeEvent is one Trace Event Format entry. Field order (and the
// omission rules) are fixed so exports are byte-stable for golden tests.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Cat  string `json:"cat,omitempty"`
	PID  int    `json:"pid"`
	TID  int    `json:"tid"`
	TS   int64  `json:"ts"`
	Dur  *int64 `json:"dur,omitempty"`
	S    string `json:"s,omitempty"`

	Args *chromeArgs `json:"args,omitempty"`

	// run and track place the event; the writer resolves them to PID/TID.
	run, track string
}

// chromeArgs carries the event details shown in the inspector's side panel.
// A struct (not a map) so encoding order is deterministic.
type chromeArgs struct {
	Name       string `json:"name,omitempty"` // metadata payload
	Seq        *int   `json:"seq,omitempty"`
	Attempt    int    `json:"attempt,omitempty"`
	Detail     string `json:"detail,omitempty"`
	Line       int64  `json:"line,omitempty"`
	TriggerSeq *int   `json:"trigger_seq,omitempty"`
	DetectUS   *int64 `json:"detect_us,omitempty"`
	SwitchUS   *int64 `json:"switch_us,omitempty"`
	RetrieveUS *int64 `json:"retrieve_us,omitempty"`
	TotalUS    *int64 `json:"total_us,omitempty"`
	Retrieved  *int   `json:"retrieved,omitempty"`
}

// chromeDoc is the top-level Trace Event Format document.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeWriter is the one Chrome document builder: families add events
// on named (run, track) pairs, and doc lays the tracks out.
type chromeWriter struct {
	tracks map[string]map[string]bool
	events []chromeEvent
}

// declare adds a track, which may stay empty.
func (c *chromeWriter) declare(run, track string) {
	if c.tracks[run] == nil {
		c.tracks[run] = map[string]bool{}
	}
	c.tracks[run][track] = true
}

// add appends ev on the given track.
func (c *chromeWriter) add(run, track string, ev chromeEvent) {
	c.declare(run, track)
	ev.run, ev.track = run, track
	c.events = append(c.events, ev)
}

// doc names every process and thread, then resolves each event's pid and
// tid. Ids follow sorted order, so the layout is independent of event
// order.
func (c *chromeWriter) doc() *chromeDoc {
	doc := &chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	pid := map[string]int{}
	tid := map[string]map[string]int{}
	for i, run := range sortedKeys(c.tracks) {
		pid[run] = i + 1
		name := run
		if name == "" {
			name = "(no run)"
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid[run],
			Args: &chromeArgs{Name: "run " + name},
		})
		tid[run] = map[string]int{}
		for j, track := range sortedKeys(c.tracks[run]) {
			tid[run][track] = j + 1
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid[run], TID: j + 1,
				Args: &chromeArgs{Name: track},
			})
		}
	}
	for _, ev := range c.events {
		ev.PID, ev.TID = pid[ev.run], tid[ev.run][ev.track]
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	return doc
}

// ChromeTrace runs one pass over the JSONL trace from r and writes every
// family in it to w as one indented Chrome trace-event JSON document.
// Lines the strict decoder rejects are skipped (run `tracetool lint` for
// the findings); the error reports only read or encode failures.
func ChromeTrace(r io.Reader, w io.Writer) error {
	p := newPass(Options{KeepEpisodes: true})
	p.kept = make([][]obs.Event, len(families))
	if err := p.read(r); err != nil {
		return fmt.Errorf("chrome export: %w", err)
	}
	p.finish()
	c := &chromeWriter{tracks: map[string]map[string]bool{}}
	for i, f := range p.fams {
		f.chrome(c, p.kept[i])
	}
	data, err := json.MarshalIndent(c.doc(), "", "  ")
	if err != nil {
		return fmt.Errorf("chrome export: %w", err)
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("chrome export: %w", err)
	}
	return nil
}

func intPtr(v int) *int       { return &v }
func int64Ptr(v int64) *int64 { return &v }

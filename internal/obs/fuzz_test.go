package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeEvent feeds arbitrary byte strings to the strict JSONL trace
// decoder. The contract under test: DecodeEvent either returns a valid
// event (one that round-trips and passes Validate) or an error — it must
// never panic, and it must never accept a line that Validate rejects.
func FuzzDecodeEvent(f *testing.F) {
	// Seed with one valid line per event type, plus representative
	// malformed inputs: truncation, unknown fields, wrong types, bad
	// vocabulary words, and non-JSON noise.
	for _, ev := range []Event{
		{TUS: 1, Ev: EvTx, Node: "A", Seq: 7, Attempt: 2, DurUS: 500, Detail: TxDelivered},
		{TUS: 2, Ev: EvRetry, Node: "A", Seq: -1, Attempt: 1, Detail: "54M"},
		{TUS: 3, Ev: EvDrop, Node: "B", Seq: -1, Attempt: 7},
		{TUS: 4, Ev: EvHeadDrop, Node: "sec", Seq: 12, Detail: DropEvictOldest},
		{TUS: 5, Ev: EvLinkSwitch, Node: "client", Seq: -1, DurUS: 21500, Detail: SwitchToSecondary},
		{TUS: 6, Ev: EvRetrieve, Node: "client", Seq: 12, DurUS: 30000},
		{TUS: 7, Ev: EvPlayoutMiss, Node: "client", Seq: 13},
	} {
		line, err := json.Marshal(ev)
		if err != nil {
			f.Fatalf("marshal seed event: %v", err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"t_us":1,"ev":"tx","node":"A","seq":0,"attempt":1,"detail":"delivered","extra":"field"}`))
	f.Add([]byte(`{"t_us":-5,"ev":"tx","node":"A","seq":0,"attempt":1,"detail":"delivered"}`))
	f.Add([]byte(`{"t_us":"not-a-number","ev":"tx"}`))
	f.Add([]byte(`{"t_us":1,"ev":"no-such-type","seq":0}`))
	f.Add([]byte(`{"t_us":1,"ev":"tx","node":"A","seq":0,"attempt":1,"detail":"exploded"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\x00\xff garbage"))

	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := DecodeEvent(line)
		if err != nil {
			return
		}
		// Accepted events must satisfy the schema they were decoded
		// against and re-encode to something DecodeEvent accepts again.
		if verr := ev.Validate(); verr != nil {
			t.Fatalf("DecodeEvent accepted an event Validate rejects: %v\ninput: %q", verr, line)
		}
		out, merr := json.Marshal(ev)
		if merr != nil {
			t.Fatalf("re-marshal decoded event: %v", merr)
		}
		ev2, derr := DecodeEvent(out)
		if derr != nil {
			t.Fatalf("round-trip decode failed: %v\nline: %s", derr, out)
		}
		if ev2 != ev {
			t.Fatalf("round-trip changed the event: %+v vs %+v", ev, ev2)
		}
	})
}

// TestDecodeEventRejectsObviousGarbage pins strictness properties the
// fuzzer cannot easily prove. A line is exactly one event: anything but
// whitespace after it (garbage, a second object) would silently drop data
// downstream, so it is an error, while a trailing "\r\n" is not.
func TestDecodeEventRejectsObviousGarbage(t *testing.T) {
	valid := `{"t_us":3,"ev":"drop","node":"B","seq":-1,"attempt":7}`
	bad := []string{
		"", "{", "tx", `{"ev":"tx"}x`, `{"t_us":1}`,
		strings.Repeat("9", 1<<16), // giant number, not an object
		valid + " x",
		valid + valid,
		valid + " }",
	}
	for _, s := range bad {
		if _, err := DecodeEvent([]byte(s)); err == nil {
			t.Errorf("DecodeEvent(%.40q) = nil error, want error", s)
		}
	}
	if _, err := DecodeEvent([]byte(valid + " \r\n")); err != nil {
		t.Errorf("DecodeEvent(valid + whitespace) = %v, want nil", err)
	}
}

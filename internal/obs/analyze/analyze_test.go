package analyze

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// trace builds a JSONL document from events (validating each — tests should
// not feed events the schema rejects unless they mean to).
func trace(t *testing.T, evs ...obs.Event) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range evs {
		if err := ev.Validate(); err != nil {
			t.Fatalf("test event invalid: %v", err)
		}
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

func analyzeString(t *testing.T, s string, opts Options) *Report {
	t.Helper()
	res, err := Analyze(strings.NewReader(s), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Report
}

func TestRecoveryEpisodeReconstruction(t *testing.T) {
	doc := trace(t,
		obs.Event{TUS: 1000, Ev: obs.EvTx, Run: "r", Node: "prim", Seq: 5, Attempt: 7, Detail: obs.TxLost},
		obs.Event{TUS: 3000, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: 5, DurUS: 2800, Detail: obs.SwitchToSecondary},
		obs.Event{TUS: 6000, Ev: obs.EvTx, Run: "r", Node: "sec", Seq: 5, Attempt: 1, Detail: obs.TxDelivered},
		obs.Event{TUS: 6000, Ev: obs.EvRetrieve, Run: "r", Node: "client", Seq: 5, DurUS: 3000},
		obs.Event{TUS: 6200, Ev: obs.EvTx, Run: "r", Node: "sec", Seq: 6, Attempt: 1, Detail: obs.TxDelivered},
		obs.Event{TUS: 6200, Ev: obs.EvRetrieve, Run: "r", Node: "client", Seq: 6, DurUS: 3200},
		obs.Event{TUS: 7000, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: -1, DurUS: 2800, Detail: obs.SwitchToPrimary},
	)
	rep := analyzeString(t, doc, Options{KeepEpisodes: true})
	if !rep.Clean() {
		t.Fatalf("violations on a well-formed trace: %+v", rep.Violations)
	}
	if rep.Recoveries != 1 || rep.Keepalives != 0 || rep.Unclosed != 0 {
		t.Fatalf("episode counts = %d/%d/%d, want 1/0/0",
			rep.Recoveries, rep.Keepalives, rep.Unclosed)
	}
	if len(rep.Episodes) != 1 {
		t.Fatalf("episodes kept = %d, want 1", len(rep.Episodes))
	}
	e := rep.Episodes[0]
	want := Episode{Run: "r", Kind: EpisodeRecovery, Line: 2, StartUS: 3000, EndUS: 7000,
		TriggerSeq: 5, DetectUS: 2000, SwitchUS: 2800, RetrieveUS: 200, TotalUS: 3000, Retrieved: 2}
	if e != want {
		t.Errorf("episode:\ngot  %+v\nwant %+v", e, want)
	}
	if rep.RecoveryDelay.Count != 1 || rep.RecoveryDelay.MinUS != 3000 || rep.RecoveryDelay.MaxUS != 3000 {
		t.Errorf("recovery delay = %+v, want count 1 min/max 3000", rep.RecoveryDelay)
	}
	if rep.DetectDelay.Count != 1 || rep.DetectDelay.MinUS != 2000 {
		t.Errorf("detect delay = %+v, want count 1 min 2000", rep.DetectDelay)
	}
	if rep.Retrieved != 2 {
		t.Errorf("retrieved = %d, want 2", rep.Retrieved)
	}
}

func TestKeepaliveEpisode(t *testing.T) {
	doc := trace(t,
		obs.Event{TUS: 100, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: -1, DurUS: 2800, Detail: obs.SwitchKeepalive},
		obs.Event{TUS: 40_100, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: -1, DurUS: 2800, Detail: obs.SwitchToPrimary},
	)
	rep := analyzeString(t, doc, Options{KeepEpisodes: true})
	if !rep.Clean() {
		t.Fatalf("violations: %+v", rep.Violations)
	}
	if rep.Keepalives != 1 || rep.Recoveries != 0 {
		t.Fatalf("keepalives = %d, recoveries = %d", rep.Keepalives, rep.Recoveries)
	}
	e := rep.Episodes[0]
	if e.Kind != EpisodeKeepalive || e.TriggerSeq != -1 || e.TotalUS != -1 {
		t.Errorf("keepalive episode = %+v", e)
	}
	if rep.RecoveryDelay.Count != 0 {
		t.Errorf("keepalive fed recovery delays: %+v", rep.RecoveryDelay)
	}
}

// TestRetrieveDuringKeepaliveDoesNotCountAsRecoveryDelay mirrors the client:
// the recovery_delay_us histogram only observes loss-triggered visits.
func TestRetrieveDuringKeepaliveDoesNotCountAsRecoveryDelay(t *testing.T) {
	doc := trace(t,
		obs.Event{TUS: 100, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: -1, DurUS: 2800, Detail: obs.SwitchKeepalive},
		obs.Event{TUS: 5000, Ev: obs.EvTx, Run: "r", Node: "sec", Seq: 9, Attempt: 1, Detail: obs.TxDelivered},
		obs.Event{TUS: 5000, Ev: obs.EvRetrieve, Run: "r", Node: "client", Seq: 9, DurUS: 4900},
		obs.Event{TUS: 9000, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: -1, DurUS: 2800, Detail: obs.SwitchToPrimary},
	)
	rep := analyzeString(t, doc, Options{KeepEpisodes: true})
	if !rep.Clean() {
		t.Fatalf("violations: %+v", rep.Violations)
	}
	if rep.RecoveryDelay.Count != 0 {
		t.Errorf("recovery delay = %+v, want empty", rep.RecoveryDelay)
	}
	if rep.Episodes[0].Retrieved != 1 || rep.Episodes[0].TotalUS != 4900 {
		t.Errorf("keepalive episode = %+v", rep.Episodes[0])
	}
}

func TestLintEpisodeViolations(t *testing.T) {
	doc := trace(t,
		// close without open
		obs.Event{TUS: 10, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: -1, Detail: obs.SwitchToPrimary},
		// retrieve outside episode
		obs.Event{TUS: 20, Ev: obs.EvRetrieve, Run: "r", Node: "client", Seq: 1, DurUS: 5},
		// open...
		obs.Event{TUS: 30, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: 1, DurUS: 2800, Detail: obs.SwitchToSecondary},
		// ...and open again while open
		obs.Event{TUS: 40, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: 2, DurUS: 2800, Detail: obs.SwitchToSecondary},
		// left open at EOF
	)
	rep := analyzeString(t, doc, Options{})
	kinds := map[string]int{}
	lines := map[int64]bool{}
	for _, v := range rep.Violations {
		kinds[v.Kind]++
		lines[v.Line] = true
	}
	// close-without-open, retrieve-outside, open-while-open, open-at-EOF.
	if kinds[VEpisode] != 4 || rep.TotalViolations != 4 {
		t.Fatalf("violations = %+v", rep.Violations)
	}
	for _, ln := range []int64{1, 2, 4} {
		if !lines[ln] {
			t.Errorf("no violation anchored to line %d: %+v", ln, rep.Violations)
		}
	}
	if rep.Unclosed != 1 {
		t.Errorf("unclosed = %d, want 1", rep.Unclosed)
	}
}

func TestLintCausalityViolations(t *testing.T) {
	doc := trace(t,
		obs.Event{TUS: 100, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: 1, DurUS: 2800, Detail: obs.SwitchToSecondary},
		obs.Event{TUS: 200, Ev: obs.EvTx, Run: "r", Node: "sec", Seq: 1, Attempt: 1, Detail: obs.TxDelivered},
		// dur_us says the visit started at t=150, but the switch was at 100.
		obs.Event{TUS: 200, Ev: obs.EvRetrieve, Run: "r", Node: "client", Seq: 1, DurUS: 50},
		// seq 2 was never delivered in this episode (and the episode has
		// seen a delivered tx, so the check is armed).
		obs.Event{TUS: 300, Ev: obs.EvRetrieve, Run: "r", Node: "client", Seq: 2, DurUS: 200},
		obs.Event{TUS: 400, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: -1, Detail: obs.SwitchToPrimary},
	)
	rep := analyzeString(t, doc, Options{})
	var causality int
	for _, v := range rep.Violations {
		if v.Kind == VCausality {
			causality++
		}
	}
	if causality != 2 {
		t.Fatalf("causality violations = %d, want 2: %+v", causality, rep.Violations)
	}
}

// TestMiddleboxEpisodeSkipsTxCheck: a visit served by a middlebox emits no
// tx events, so retrievals without a delivered tx must not be flagged.
func TestMiddleboxEpisodeSkipsTxCheck(t *testing.T) {
	doc := trace(t,
		obs.Event{TUS: 100, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: 1, DurUS: 2800, Detail: obs.SwitchToSecondary},
		obs.Event{TUS: 200, Ev: obs.EvRetrieve, Run: "r", Node: "client", Seq: 1, DurUS: 100},
		obs.Event{TUS: 300, Ev: obs.EvLinkSwitch, Run: "r", Node: "client", Seq: -1, Detail: obs.SwitchToPrimary},
	)
	rep := analyzeString(t, doc, Options{})
	if !rep.Clean() {
		t.Fatalf("middlebox-style episode flagged: %+v", rep.Violations)
	}
}

func TestLintOrderAndDecode(t *testing.T) {
	good := trace(t,
		obs.Event{TUS: 500, Ev: obs.EvRetry, Run: "r", Node: "prim", Seq: -1, Attempt: 1},
		obs.Event{TUS: 400, Ev: obs.EvRetry, Run: "r", Node: "prim", Seq: -1, Attempt: 2},
		// A different node going "back in time" is allowed.
		obs.Event{TUS: 100, Ev: obs.EvHeadDrop, Run: "r", Node: "sec", Seq: 3, Detail: obs.DropEvictOldest},
	)
	doc := good + "garbage\n" + `{"t_us":1,"ev":"drop","node":"p","seq":-1,"attempt":1,"nope":1}` + "\n"
	rep := analyzeString(t, doc, Options{})
	var order, decode int
	for _, v := range rep.Violations {
		switch v.Kind {
		case VOrder:
			order++
			if v.Line != 2 {
				t.Errorf("order violation at line %d, want 2", v.Line)
			}
		case VDecode:
			decode++
		}
	}
	if order != 1 || decode != 2 {
		t.Fatalf("order=%d decode=%d, want 1/2: %+v", order, decode, rep.Violations)
	}
}

func TestMaxViolationsCap(t *testing.T) {
	doc := strings.Repeat("bad\n", 10)
	rep := analyzeString(t, doc, Options{MaxViolations: 3})
	if len(rep.Violations) != 3 || rep.TotalViolations != 10 {
		t.Fatalf("kept %d / total %d, want 3/10", len(rep.Violations), rep.TotalViolations)
	}
	rep = analyzeString(t, doc, Options{MaxViolations: -1})
	if len(rep.Violations) != 10 {
		t.Fatalf("unlimited kept %d, want 10", len(rep.Violations))
	}
}

func TestLinkStatsBursts(t *testing.T) {
	doc := trace(t,
		obs.Event{TUS: 1, Ev: obs.EvTx, Run: "r", Node: "prim", Seq: 1, Attempt: 7, Detail: obs.TxLost},
		obs.Event{TUS: 2, Ev: obs.EvTx, Run: "r", Node: "prim", Seq: 2, Attempt: 7, Detail: obs.TxLost},
		obs.Event{TUS: 3, Ev: obs.EvTx, Run: "r", Node: "prim", Seq: 3, Attempt: 1, Detail: obs.TxDelivered},
		obs.Event{TUS: 4, Ev: obs.EvTx, Run: "r", Node: "prim", Seq: 4, Attempt: 7, Detail: obs.TxLost},
		obs.Event{TUS: 5, Ev: obs.EvRetry, Run: "r", Node: "prim", Seq: -1, Attempt: 1},
		obs.Event{TUS: 6, Ev: obs.EvDrop, Run: "r", Node: "prim", Seq: -1, Attempt: 7},
		obs.Event{TUS: 7, Ev: obs.EvHeadDrop, Run: "r", Node: "sec", Seq: 9, Detail: obs.DropEvictOldest},
		obs.Event{TUS: 8, Ev: obs.EvHeadDrop, Run: "r", Node: "sec", Seq: 10, Detail: obs.DropRefuseNewest},
	)
	rep := analyzeString(t, doc, Options{})
	prim := rep.Links["r/prim"]
	if prim == nil {
		t.Fatalf("no r/prim link stats: %+v", rep.Links)
	}
	if prim.TxLost != 3 || prim.TxDelivered != 1 || prim.Retries != 1 || prim.Drops != 1 {
		t.Errorf("prim = %+v", prim)
	}
	// Bursts: [1,2] then [4] (closed at Finish).
	if prim.LossBursts != 2 || prim.MaxBurst != 2 || prim.MeanBurst() != 1.5 {
		t.Errorf("bursts = %d max %d mean %.1f, want 2/2/1.5",
			prim.LossBursts, prim.MaxBurst, prim.MeanBurst())
	}
	sec := rep.Links["r/sec"]
	if sec.HeadDropEvict != 1 || sec.HeadDropRefuse != 1 {
		t.Errorf("sec head drops = %+v", sec)
	}
}

func TestWindowedTracePoints(t *testing.T) {
	doc := trace(t,
		obs.Event{TUS: 100, Ev: obs.EvTx, Run: "r", Node: "prim", Seq: 1, Attempt: 1, Detail: obs.TxDelivered},
		obs.Event{TUS: 900, Ev: obs.EvTx, Run: "r", Node: "prim", Seq: 2, Attempt: 7, Detail: obs.TxLost},
		obs.Event{TUS: 2500, Ev: obs.EvRetry, Run: "r", Node: "prim", Seq: -1, Attempt: 1},
	)
	rep := analyzeString(t, doc, Options{WindowUS: 1000})
	if len(rep.Points) != 2 {
		t.Fatalf("points = %+v, want 2 windows", rep.Points)
	}
	w0 := rep.Points[0]
	if w0.StartUS != 0 || w0.EndUS != 1000 || w0.Counts["tx"] != 2 ||
		w0.Counts["tx:delivered"] != 1 || w0.Counts["tx:lost"] != 1 {
		t.Errorf("window 0 = %+v", w0)
	}
	w1 := rep.Points[1]
	if w1.StartUS != 2000 || w1.Counts["retry"] != 1 {
		t.Errorf("window 1 = %+v", w1)
	}
}

func TestBlankLinesAndTotals(t *testing.T) {
	doc := "\n  \n" + trace(t,
		obs.Event{TUS: 5, Ev: obs.EvRetry, Run: "a", Node: "prim", Seq: -1, Attempt: 1},
		obs.Event{TUS: 9, Ev: obs.EvRetry, Run: "b", Node: "prim", Seq: -1, Attempt: 1},
	)
	rep := analyzeString(t, doc, Options{})
	if rep.Lines != 4 || rep.Blank != 2 || rep.Events != 2 {
		t.Fatalf("lines/blank/events = %d/%d/%d, want 4/2/2", rep.Lines, rep.Blank, rep.Events)
	}
	if len(rep.Runs) != 2 || rep.Runs[0] != "a" || rep.Runs[1] != "b" {
		t.Errorf("runs = %v", rep.Runs)
	}
	if rep.FirstUS != 5 || rep.LastUS != 9 {
		t.Errorf("span = [%d, %d], want [5, 9]", rep.FirstUS, rep.LastUS)
	}
	if rep.ByType[obs.EvRetry] != 2 {
		t.Errorf("by_type = %v", rep.ByType)
	}
}

// TestInterleavedRuns: two runs' episodes interleave line-by-line; each must
// reconstruct independently.
func TestInterleavedRuns(t *testing.T) {
	doc := trace(t,
		obs.Event{TUS: 100, Ev: obs.EvLinkSwitch, Run: "a", Node: "client", Seq: 1, DurUS: 10, Detail: obs.SwitchToSecondary},
		obs.Event{TUS: 150, Ev: obs.EvLinkSwitch, Run: "b", Node: "client", Seq: 2, DurUS: 10, Detail: obs.SwitchToSecondary},
		obs.Event{TUS: 200, Ev: obs.EvRetrieve, Run: "a", Node: "client", Seq: 1, DurUS: 100},
		obs.Event{TUS: 300, Ev: obs.EvRetrieve, Run: "b", Node: "client", Seq: 2, DurUS: 150},
		obs.Event{TUS: 400, Ev: obs.EvLinkSwitch, Run: "a", Node: "client", Seq: -1, Detail: obs.SwitchToPrimary},
		obs.Event{TUS: 500, Ev: obs.EvLinkSwitch, Run: "b", Node: "client", Seq: -1, Detail: obs.SwitchToPrimary},
	)
	rep := analyzeString(t, doc, Options{KeepEpisodes: true})
	if !rep.Clean() {
		t.Fatalf("violations: %+v", rep.Violations)
	}
	seen := rep.Episodes
	if rep.Recoveries != 2 || len(seen) != 2 {
		t.Fatalf("recoveries = %d, kept episodes = %d, want 2/2", rep.Recoveries, len(seen))
	}
	if seen[0].Run != "a" || seen[0].TotalUS != 100 || seen[1].Run != "b" || seen[1].TotalUS != 150 {
		t.Errorf("episodes = %+v", seen)
	}
	if rep := analyzeString(t, doc, Options{}); rep.Episodes != nil {
		t.Errorf("episodes retained without KeepEpisodes: %+v", rep.Episodes)
	}
}

// TestSampleEventsAnalyzeClean: the documented worked examples form a
// coherent fragment — in particular the link-switch/retrieve pair must
// reconstruct as one episode (unclosed at EOF is expected and is the only
// finding).
func TestSampleEventsAnalyzeClean(t *testing.T) {
	doc := trace(t, obs.SampleEvents()...)
	rep := analyzeString(t, doc, Options{KeepEpisodes: true})
	if rep.Recoveries != 1 || rep.Retrieved != 1 {
		t.Fatalf("sample events: recoveries=%d retrieved=%d, want 1/1", rep.Recoveries, rep.Retrieved)
	}
	for _, v := range rep.Violations {
		if v.Kind != VEpisode || !strings.Contains(v.Msg, "never closed") {
			t.Errorf("unexpected violation on sample events: %+v", v)
		}
	}
	if rep.Episodes[0].TotalUS != 11_300 {
		t.Errorf("sample episode = %+v, want total 11300", rep.Episodes[0])
	}
}

package exp

import "repro/internal/stats"

// Figure7 is the paper's architecture diagram — not a measurement. This
// function renders the three deployment alternatives and maps each role to
// the module that implements it, so `experiments all` covers every figure.
func Figure7() *Result {
	t := stats.NewTable("Figure 7: architectural alternatives",
		"deployment", "replication point", "buffering", "selection", "implemented by")
	t.AddRow("(a) End-to-End",
		"source (remote peer)",
		"stock AP PSM queue (tail-drop, deep)",
		"none (wake flushes backlog)",
		"core.ModeStockAP")
	t.AddRow("(b) Customized AP",
		"source or SDN switch",
		"AP PSM queue: head-drop, settable depth",
		"implicit (wake timed to queue head)",
		"core.ModeCustomAP + ap.HeadDrop + assoc queue-config IE")
	t.AddRow("(c) Middlebox",
		"SDN switch on the LAN",
		"middlebox per-stream head-drop buffer",
		"explicit (START <stream> <fromSeq>)",
		"core.ModeMiddlebox + netsim.Middlebox / emu.Middlebox (live)")

	roles := stats.NewTable("Data/control flow roles",
		"role", "simulated", "live (loopback UDP)")
	roles.AddRow("stream source", "traffic.Source", "emu.Sender (DF or RTP framing)")
	roles.AddRow("replication", "netsim.SDNSwitch", "emu.Replicator")
	roles.AddRow("WiFi links", "phy.Link + mac.Transmitter + ap.AP", "emu.Link (loss/jitter injection)")
	roles.AddRow("network-side buffer", "ap.AP PSM queue / netsim.Middlebox", "emu.NewAPEmu / emu.NewMiddlebox")
	roles.AddRow("client", "client.Client (Algorithm 1)", "emu.Client (gap detection + fetch)")
	return &Result{
		ID:     "fig7",
		Title:  "DiversiFi deployment alternatives (§5.3)",
		Tables: []*stats.Table{t, roles},
		Notes:  []string{"architecture figure: rendered as the implementation map rather than measured"},
	}
}

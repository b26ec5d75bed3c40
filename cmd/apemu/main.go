// Command apemu runs the live "Customized AP" emulator (§5.3.1): the
// middlebox with implicit selection. It holds each stream in a shallow
// head-drop PSM queue and speaks the middlebox's control protocol, with
// START as the wake (any fromSeq is ignored) and STOP as the sleep.
//
// Usage:
//
//	apemu [-data 127.0.0.1:7100] [-ctrl 127.0.0.1:7101] [-depth 5]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/emu"
)

func main() {
	data := flag.String("data", "127.0.0.1:7100", "data socket (replicated stream copies)")
	ctrl := flag.String("ctrl", "127.0.0.1:7101", "control socket")
	depth := flag.Int("depth", 5, "head-drop PSM buffer depth")
	flag.Parse()

	a, err := emu.NewAPEmu(*data, *ctrl, *depth)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apemu:", err)
		os.Exit(1)
	}
	defer a.Close()
	fmt.Printf("customized-AP emulator up: data %s, control %s, depth %d\n", a.DataAddr(), a.CtrlAddr(), *depth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	sent, dropped := a.Counts()
	fmt.Printf("apemu shutting down: sent %d, head-dropped %d\n", sent, dropped)
}

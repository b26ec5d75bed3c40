package campaign

import (
	"strings"
	"testing"
)

func TestStatusSnapshotText(t *testing.T) {
	snap := &StatusSnapshot{Schema: StatusSchema, Running: true, Total: 4, Done: 1, Executed: 1,
		ETAMS:  3000,
		Active: []ActiveJob{{ID: "running-job", Seed: 7, N: 100, ElapsedMS: 40}},
		Recent: []JobRecord{{ID: "done-job", Status: StatusOK, ElapsedMS: 12}}}
	text := snap.Text()
	for _, want := range []string{"Campaign fleet", "running", "1/4", "running-job", "done-job", "12ms"} {
		if !strings.Contains(text, want) {
			t.Errorf("watch text missing %q:\n%s", want, text)
		}
	}
	empty := (&StatusSnapshot{Schema: StatusSchema, ETAMS: -1}).Text()
	if !strings.Contains(empty, "(no jobs)") || !strings.Contains(empty, "n/a") {
		t.Errorf("empty snapshot text:\n%s", empty)
	}
}

// TestStatusTextFleet renders the per-worker table for sharded sweeps.
func TestStatusTextFleet(t *testing.T) {
	snap := &StatusSnapshot{
		Schema: StatusSchema, Running: true, Total: 100, Done: 40,
		Executed: 40, ElapsedP50MS: 10, ElapsedP95MS: 20, ElapsedP99MS: 30, ElapsedP999MS: 40,
		Fleet: []WorkerStatus{
			{Name: "w0", JobsDone: 30, Leases: 1, LastSeenMS: 100, Alive: true},
			{Name: "w1", JobsDone: 10, Leases: 0, LastSeenMS: 90000, Alive: false},
		},
	}
	text := snap.Text()
	for _, want := range []string{"Fleet workers", "w0", "w1", "DEAD", "alive", "p999", "40ms"} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet text missing %q:\n%s", want, text)
		}
	}
}

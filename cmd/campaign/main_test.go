package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestCampaignRegistryRun drives plain `campaign` end to end on two cheap
// registered experiments: -json prints the sweep-summary-v2 document with
// both results, and -out writes their CSVs even without a cache.
func TestCampaignRegistryRun(t *testing.T) {
	outDir := filepath.Join(t.TempDir(), "csv")
	var out, errOut bytes.Buffer
	code := runCampaign([]string{"-jobs", "fig7,table1", "-no-cache", "-quiet", "-json", "-out", outDir},
		&out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	var sum sweep.Summary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("-json output: %v", err)
	}
	if sum.Schema != sweep.SummarySchema || sum.Executed != 2 || len(sum.Results) != 2 {
		t.Fatalf("summary: schema %q, %d executed, %d results", sum.Schema, sum.Executed, len(sum.Results))
	}
	if sum.Results[0].ID != "table1" || sum.Results[1].ID != "fig7" {
		t.Errorf("results not in job (registry) order: %s, %s", sum.Results[0].ID, sum.Results[1].ID)
	}
	data, err := os.ReadFile(filepath.Join(outDir, "table1.csv"))
	if err != nil || !strings.Contains(string(data), "# ") {
		t.Errorf("table1.csv: %v %q", err, data)
	}
	if _, err := os.Stat(filepath.Join(outDir, "fig7.csv")); err != nil {
		t.Errorf("fig7.csv: %v", err)
	}
}

func TestCampaignUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "nope", "-no-cache"},
		{"-no-cache", "stray"},
		{"-bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := runCampaign(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := runCampaign([]string{"-list"}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "fig2a") {
		t.Errorf("-list: exit %d, output %q", code, out.String())
	}
}

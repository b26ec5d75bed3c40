package campaign_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/sweep"
)

// TestAllCampaignCoversRegistry pins the contract that made the registry
// worth extracting: the "all" campaign and exp.Registry() name the exact
// same experiment ids, in registry order, so no driver can silently drift
// from the documented experiment list.
func TestAllCampaignCoversRegistry(t *testing.T) {
	var want []string
	seen := map[string]bool{}
	for _, s := range exp.Registry() {
		if s.ID == "" || s.Run == nil {
			t.Fatalf("registry spec %+v incomplete", s)
		}
		if seen[s.ID] {
			t.Fatalf("duplicate registry id %q", s.ID)
		}
		seen[s.ID] = true
		want = append(want, s.ID)
	}
	spec := experiments(t, 42, "all")
	if !reflect.DeepEqual(spec.Experiments, want) {
		t.Fatalf("all campaign %v, want the registry %v", spec.Experiments, want)
	}
	if spec.Total() != int64(len(want)) {
		t.Fatalf("all campaign has %d jobs, want %d", spec.Total(), len(want))
	}
}

func TestJobsForSelectors(t *testing.T) {
	if tables := experiments(t, 1, "table"); len(tables.Experiments) != 3 {
		t.Fatalf("kind selector: got %v, want 3 tables", tables.Experiments)
	}
	doc := `{"name":"c","experiments":["fig2a","table1","fig2a"],"n":25,"seeds":{"start":42,"count":1}}`
	list, err := sweep.ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"table1", "fig2a"}; !reflect.DeepEqual(list.Experiments, want) {
		t.Fatalf("id list with a duplicate: got %v, want %v", list.Experiments, want)
	}
	// The override reaches the job: fig2a at seed 42 and n 25 has the key
	// the registry cache has always used for that point.
	if j, _ := list.JobAt(1); j.Name() != "fig2a" || j.Key() != "af695d7b68ea5d5f85015deb5e6acd5e" {
		t.Fatalf("override not applied: %s key %s", j.Name(), j.Key())
	}
	if _, err := sweep.ParseSpec([]byte(`{"name":"c","experiments":["nope"],"seeds":{"count":1}}`)); err == nil {
		t.Fatal("unknown selector accepted")
	}
}

// TestRegistryDefaultsResolve executes the cheapest registered experiment
// end to end through a campaign into the cache, pinning the job → registry
// plumbing.
func TestRegistryDefaultsResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := experiments(t, 42, "fig7")
	s, _ := runCampaign(t, spec, &sweep.Runner{Cache: cache}, 1, nil)
	if s.Executed != 1 || s.Failed != 0 || len(s.Results) != 1 || s.Results[0].ID != "fig7" {
		t.Fatalf("%d executed, %d failed, results %v", s.Executed, s.Failed, s.Results)
	}
	j, _ := spec.JobAt(0)
	data, ok := cache.LoadRaw(j.Key())
	var res exp.Result
	if !ok || json.Unmarshal(data, &res) != nil || res.ID != "fig7" {
		t.Fatalf("fig7 result not cached: %v %q", ok, data)
	}
}

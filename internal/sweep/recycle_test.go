package sweep

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
)

// TestRecycledTracesMatchFresh runs jobs whose traces take the storage
// other jobs released: 120 s calls (6,000 packets) interleaved with 7 s
// ones (350 packets), one after another and then from four goroutines at
// once. Each job's encoded metrics must equal its bytes from a run started
// on an empty pool, where the dual call's traces take fresh storage.
func TestRecycledTracesMatchFresh(t *testing.T) {
	jobsOf := func(doc string) []Job {
		s := synthSpec(t, doc)
		jobs := make([]Job, s.Total())
		for i := range jobs {
			j, err := s.JobAt(int64(i))
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		return jobs
	}
	const grid = `"impairments":["weak-link","mobility"],"device_classes":["pc"],"ap_densities":["typical"],"seeds":{"start":1,"count":1}`
	long := jobsOf(`{"name":"recycle-long",` + grid + `}`)
	short := jobsOf(`{"name":"recycle-short","duration_s":7,` + grid + `}`)
	var jobs []Job
	for i := range long {
		jobs = append(jobs, long[i], short[i])
	}
	encode := func(j Job) []byte {
		data, err := json.Marshal(RunJob(j))
		if err != nil {
			t.Error(err)
		}
		return data
	}

	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		runtime.GC() // two collections empty a sync.Pool
		runtime.GC()
		want[i] = encode(j)
	}
	for i, j := range jobs {
		if got := encode(j); !bytes.Equal(got, want[i]) {
			t.Errorf("serial: %g s job %s seed %d on recycled traces:\n%s\non an empty pool:\n%s", j.spec.DurationS, j.Name(), j.Seed, got, want[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (g + k) % len(jobs)
				if got := encode(jobs[i]); !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d: %g s job %s seed %d on recycled traces:\n%s\non an empty pool:\n%s",
						g, jobs[i].spec.DurationS, jobs[i].Name(), jobs[i].Seed, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestCacheRawRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadRaw("absent"); ok {
		t.Fatal("raw miss reported as hit")
	}
	if err := c.StoreRaw("r1", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	data, ok := c.LoadRaw("r1")
	if !ok || string(data) != `{"v":1}` {
		t.Fatalf("raw round-trip: ok=%v data=%q", ok, data)
	}
	c.RemoveRaw("r1")
	if _, ok := c.LoadRaw("r1"); ok {
		t.Fatal("removed entry still loads")
	}
	c.RemoveRaw("r1") // removing a missing entry is fine
}

// TestCacheAppendRaw: an entry of any length lands after what the buffer
// already holds, and a miss or an empty entry leaves the buffer's bytes as
// they were.
func TestCacheAppendRaw(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 511, 512, 513, 5000} {
		entry := make([]byte, n)
		for i := range entry {
			entry[i] = byte('a' + i%26)
		}
		key := fmt.Sprint("n", n)
		if err := c.StoreRaw(key, entry); err != nil {
			t.Fatal(err)
		}
		for _, buf := range [][]byte{nil, []byte("head"), append(make([]byte, 0, 600), "head"...)} {
			head := string(buf)
			got, ok := c.AppendRaw(buf, key)
			if !ok || string(got) != head+string(entry) {
				t.Errorf("%d-byte entry after %q: ok=%v, got %d bytes", n, head, ok, len(got))
			}
		}
	}
	if err := os.WriteFile(c.Path("empty"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"absent", "empty"} {
		if got, ok := c.AppendRaw([]byte("head"), key); ok || string(got) != "head" {
			t.Errorf("%s: ok=%v, buffer %q", key, ok, got)
		}
		if _, ok := c.LoadRaw(key); ok {
			t.Errorf("%s: LoadRaw reported a hit", key)
		}
	}
}

// TestStoreRawFailedRenameLeavesNoTemp: when the entry's path is taken (a
// non-empty directory here), the rename fails and its temp file goes too,
// instead of staying behind as an orphan.
func TestStoreRawFailedRenameLeavesNoTemp(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(c.Path("k"), "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreRaw("k", bytes.Repeat([]byte("x"), 10)); err == nil {
		t.Fatal("stored an entry over a directory")
	}
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Temp != 0 {
		t.Errorf("a failed store left %d temp files", st.Temp)
	}
}

func TestCacheStat(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("empty cache stat: %+v", st)
	}
	if err := c.StoreRaw("a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreRaw("b", make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.Bytes != 150 {
		t.Fatalf("stat after stores: %+v", st)
	}
	if st.OldestAgeMS < st.NewestAgeMS {
		t.Errorf("age range inverted: oldest %dms < newest %dms", st.OldestAgeMS, st.NewestAgeMS)
	}
}

func TestCacheGCByAge(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"old1", "old2", "new1"} {
		if err := c.StoreRaw(k, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// Backdate two entries past the age cutoff.
	past := time.Now().Add(-2 * time.Hour)
	for _, k := range []string{"old1", "old2"} {
		if err := os.Chtimes(c.Path(k), past, past); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.GC(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 2 || res.Kept != 1 || res.RemovedBytes != 20 {
		t.Fatalf("age gc: %+v", res)
	}
	if _, ok := c.LoadRaw("new1"); !ok {
		t.Error("age gc removed a fresh entry")
	}
}

func TestCacheGCBySize(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Four entries, oldest first by explicit mtimes so eviction order is
	// deterministic regardless of write speed.
	now := time.Now()
	for i, k := range []string{"e0", "e1", "e2", "e3"} {
		if err := c.StoreRaw(k, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		mt := now.Add(time.Duration(i-4) * time.Minute)
		if err := os.Chtimes(c.Path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.GC(0, 250)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 2 || res.Kept != 2 {
		t.Fatalf("size gc: %+v", res)
	}
	// Oldest-first: e0 and e1 go, e2 and e3 stay.
	for _, k := range []string{"e0", "e1"} {
		if _, ok := c.LoadRaw(k); ok {
			t.Errorf("size gc kept old entry %s", k)
		}
	}
	for _, k := range []string{"e2", "e3"} {
		if _, ok := c.LoadRaw(k); !ok {
			t.Errorf("size gc evicted new entry %s", k)
		}
	}
	// A second pass under the same budget is a no-op.
	res, err = c.GC(0, 250)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 0 || res.Kept != 2 {
		t.Fatalf("idempotent gc: %+v", res)
	}
}

// TestCacheGCTempFiles: a writer killed between creating its temp file and
// renaming it leaves <key>.tmp-<n> behind. Stat counts such files and GC's
// age rule removes them, while a fresh one stays — a live writer may own
// it.
func TestCacheGCTempFiles(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"k.tmp-1", "k.tmp-2"} {
		if err := os.WriteFile(filepath.Join(c.Dir(), name), make([]byte, 10), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(c.Dir(), "k.tmp-1"), past, past); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Temp != 2 || st.Entries != 0 || st.Bytes != 20 {
		t.Fatalf("stat with temp files: %+v", st)
	}
	res, err := c.GC(time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || res.Kept != 1 {
		t.Fatalf("gc: %+v", res)
	}
	if _, err := os.Stat(filepath.Join(c.Dir(), "k.tmp-1")); !os.IsNotExist(err) {
		t.Error("hour-old temp file survived gc")
	}
	if _, err := os.Stat(filepath.Join(c.Dir(), "k.tmp-2")); err != nil {
		t.Errorf("fresh temp file removed: %v", err)
	}
}

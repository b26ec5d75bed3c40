// Package campaign holds what the job engine (internal/sweep) shares with
// its drivers: the content-addressed result cache every job resolves
// through, so re-runs are instant and an interrupted run resumes where it
// stopped, and the campaign-status-v1 fleet view the sweep coordinator
// serves at /campaign/status and `campaign watch` renders.
package campaign

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// DefaultCacheDir is where cmd/campaign persists results unless told
// otherwise.
const DefaultCacheDir = ".campaign-cache"

// Cache is a disk-backed result store keyed by a job's content address.
// One file per job, in an encoding its caller owns; writes go through a
// temp file + rename so a run killed mid-write never leaves a truncated
// entry, which is what makes an interrupted run resumable, and a failed
// write removes its temp file. Reads append an entry to a buffer the
// caller owns (AppendRaw), so a caller resolving many entries can reuse
// one; the cache keeps no buffer.
type Cache struct {
	dir string
}

// OpenCache creates (if needed) and opens a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Path returns the file a key is stored at.
func (c *Cache) Path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// LoadRaw returns the raw bytes cached under key, or ok=false on a miss:
// AppendRaw into a new buffer.
func (c *Cache) LoadRaw(key string) ([]byte, bool) {
	return c.AppendRaw(nil, key)
}

// AppendRaw appends the raw bytes cached under key to dst and returns the
// extended buffer, or dst's bytes and ok=false on a miss or an empty
// entry. It reads without sizing the file first, so a caller that reuses
// one buffer across entries allocates none for their bytes. The caller
// owns the encoding and evicts an entry it cannot decode.
func (c *Cache) AppendRaw(dst []byte, key string) ([]byte, bool) {
	f, err := os.Open(c.Path(key))
	if err != nil {
		return dst, false
	}
	defer f.Close()
	n := len(dst)
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		m, err := f.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+m]
		if err == io.EOF {
			return dst, len(dst) > n
		}
		if err != nil {
			return dst[:n], false
		}
	}
}

// StoreRaw persists raw bytes under key atomically (temp file + rename).
func (c *Cache) StoreRaw(key string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.Path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// RemoveRaw deletes the entry stored under key (missing entries are fine).
func (c *Cache) RemoveRaw(key string) { os.Remove(c.Path(key)) }

// CacheStat summarizes a cache directory for `campaign cache stat`.
type CacheStat struct {
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	// Temp counts temp files a writer killed between create and rename
	// left behind (or a live writer still owns); Bytes includes them.
	Temp  int   `json:"temp,omitempty"`
	Bytes int64 `json:"bytes"`
	// OldestAgeMS / NewestAgeMS are file ages relative to now (0 when
	// the cache is empty).
	OldestAgeMS int64 `json:"oldest_age_ms"`
	NewestAgeMS int64 `json:"newest_age_ms"`
}

// cacheFile is one file the cache manages: an entry, or a temp file.
type cacheFile struct {
	name string
	size int64
	mod  time.Time
	temp bool
}

// files lists the cache's entries (*.json) and temp files (<key>.tmp-*).
func (c *Cache) files() ([]cacheFile, error) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var out []cacheFile
	for _, e := range ents {
		temp := strings.Contains(e.Name(), ".tmp-")
		if !temp && filepath.Ext(e.Name()) != ".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, cacheFile{e.Name(), info.Size(), info.ModTime(), temp})
	}
	return out, nil
}

// Stat scans the cache and reports entry and temp-file counts, total
// bytes, and age range.
func (c *Cache) Stat() (CacheStat, error) {
	st := CacheStat{Dir: c.dir}
	files, err := c.files()
	if err != nil {
		return st, err
	}
	now := time.Now()
	for i, f := range files {
		if f.temp {
			st.Temp++
		} else {
			st.Entries++
		}
		st.Bytes += f.size
		age := now.Sub(f.mod).Milliseconds()
		if age > st.OldestAgeMS {
			st.OldestAgeMS = age
		}
		if i == 0 || age < st.NewestAgeMS {
			st.NewestAgeMS = age
		}
	}
	return st, nil
}

// GCResult reports what a GC pass removed and what remains.
type GCResult struct {
	Removed      int   `json:"removed"`
	RemovedBytes int64 `json:"removed_bytes"`
	Kept         int   `json:"kept"`
	KeptBytes    int64 `json:"kept_bytes"`
}

// GC prunes the cache: every file older than maxAge goes (maxAge <= 0
// disables the age rule), then oldest-first until the remainder fits in
// maxBytes (maxBytes <= 0 disables the size rule). Both rules cover the
// temp files a killed writer leaves behind, except that a temp file
// inside the age window stays: a live writer may own it. Unbounded cache
// growth is what kills overnight sweeps, so this is wired into `campaign
// cache gc`. Removal errors are ignored per file — a locked file costs one
// retry on the next pass, not the whole sweep.
func (c *Cache) GC(maxAge time.Duration, maxBytes int64) (GCResult, error) {
	var res GCResult
	all, err := c.files()
	if err != nil {
		return res, err
	}
	var total int64
	for _, f := range all {
		total += f.size
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod.Before(all[j].mod) })
	cutoff := time.Now().Add(-maxAge)
	for _, f := range all {
		aged := maxAge > 0 && f.mod.Before(cutoff)
		overBudget := maxBytes > 0 && total > maxBytes && !(f.temp && maxAge > 0)
		if aged || overBudget {
			if err := os.Remove(filepath.Join(c.dir, f.name)); err == nil {
				res.Removed++
				res.RemovedBytes += f.size
				total -= f.size
				continue
			}
		}
		res.Kept++
		res.KeptBytes += f.size
	}
	return res, nil
}

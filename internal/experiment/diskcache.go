package experiment

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync/atomic"
)

// The persistent layer under the in-memory memoization: measurement results
// as content-keyed JSON files, so repeated report/crossover runs skip the
// simulator entirely. The disk key is the in-memory key (betaKey)
// extended with the runner's base seed and a measurement version:
//
//   - the seed, because a job's value is a function of (base seed, key) —
//     two runners with different seeds must never share entries;
//   - the version, bumped whenever measurement semantics change (routing
//     randomness re-keyed, estimator changed), so entries written by an
//     older build are stale by construction and simply never match.
//
// Corrupt, unreadable, or mismatched files are treated as misses and
// overwritten; the cache never makes a run fail. Writes go through a temp
// file + rename so concurrent processes see whole entries or nothing.
//
// Determinism on a hit is exact: a β job replays the machine construction
// on its keyed stream (topology.Build draws the same prefix either way) and
// substitutes the stored numbers for the measurement, so hit and miss paths
// return identical values.

// MeasurementVersion names the semantics of the cached values. Bump it
// whenever the simulator or estimators change measured numbers; stale
// entries then miss on key comparison and are rewritten. Exported so
// netemud's result store labels its records with it and answers only
// from records of the current version, going stale in lockstep with the
// measurement caches.
const MeasurementVersion = "m4"

// DiskCache is a directory of JSON measurement entries. Safe for
// concurrent use.
type DiskCache struct {
	dir    string
	hits   atomic.Int64
	misses atomic.Int64
}

// OpenDiskCache opens (creating if needed) a cache directory.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: open disk cache: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *DiskCache) Dir() string { return c.dir }

// Counts returns how many lookups hit and missed so far. Loads that fail
// (absent, corrupt, stale, or colliding entries) all count as misses.
func (c *DiskCache) Counts() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// diskEntry is the stored form: the full key guards against hash-collision
// false hits and doubles as a human-readable record of what the file holds.
type diskEntry struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// path maps a key to its file. FNV-1a over the full key; collisions are
// handled by the stored-key comparison in load, not by the name.
func (c *DiskCache) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(c.dir, fmt.Sprintf("%016x.json", h.Sum64()))
}

// load reads the entry for key into out, reporting whether it hit. Every
// failure mode — missing file, unreadable JSON, a different key in the
// file, value/out type mismatch — is a miss: a stale or foreign cache
// directory degrades to recomputation, never to a wrong value or an
// error.
func (c *DiskCache) load(key string, out any) bool {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return false
	}
	var e diskEntry
	if json.Unmarshal(data, &e) != nil || e.Key != key || json.Unmarshal(e.Value, out) != nil {
		c.misses.Add(1)
		return false
	}
	c.hits.Add(1)
	return true
}

// store writes the entry for key. Errors are swallowed: a read-only or full
// disk degrades the cache to a no-op, never the run to a failure.
func (c *DiskCache) store(key string, val any) {
	raw, err := json.Marshal(val)
	if err != nil {
		return
	}
	data, err := json.MarshalIndent(diskEntry{Key: key, Value: raw}, "", "  ")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "entry-*.tmp")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if os.Rename(name, c.path(key)) != nil {
		os.Remove(name)
	}
}

// UseDiskCache adds a persistent layer under the runner's in-memory
// memoization: β jobs consult the cache before running the simulator
// and persist what they measure. Entries are keyed by (measurement
// identity, base seed, measurement version), so a cache directory can be
// shared across runs, seeds, and versions without ever serving a wrong
// value. Attach before submitting jobs.
func (r *Runner) UseDiskCache(c *DiskCache) { r.disk = c }

// AttachDiskCache is UseDiskCache over a directory path: it opens
// (creating if needed) the directory and attaches it.
func (r *Runner) AttachDiskCache(dir string) (*DiskCache, error) {
	c, err := OpenDiskCache(dir)
	if err != nil {
		return nil, err
	}
	r.disk = c
	return c, nil
}

// diskKey extends an in-memory memo key with the run identity.
func (r *Runner) diskKey(key string) string {
	return fmt.Sprintf("%s/seed=%d/%s", key, r.seed, MeasurementVersion)
}

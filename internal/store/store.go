// Package store is the embedded, append-only result store behind
// netemud's query API. Every 200 the serving layer produces for a
// RunSpec — fresh computation, validated worker forward, sweep point —
// can be durably recorded here and queried back later, byte-identical
// to the wire response that produced it.
//
// The layout is a content-keyed log: one JSON record per line, records
// appended to an active segment (`active.log`) that is sealed by an
// atomic rename into the numbered sequence (`seg-00000001.log`, ...)
// once it exceeds the segment size. Sealed segments are immutable; only
// the active tail can ever hold a torn record (a crash mid-append), and
// Open truncates that tail back to the last complete record, so a store
// directory is always reopenable and never serves a partial result.
//
// Identity is the canonical RunSpec string: a record's Key is a stable
// digest of spec.Canonical() (see KeyOf), which doubles as the URL id
// of GET /v1/results/{key}. Appending the same key with the same body
// and version is a no-op (deduplicated by body digest without touching
// disk); appending the same key with a different body or version — a
// measurement-version bump — supersedes the old record in the index
// while the log keeps the full history.
//
// The in-memory index (rebuilt from the log on Open) maps keys to file
// positions and carries the queryable metadata: kind, family, dim,
// size, seed, measurement version, and the append sequence number that
// gives /v1/results its stable pagination order.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// KeyPrefix versions the result-key namespace. A key is KeyPrefix plus
// 32 hex digits of the canonical string's SHA-256; bump the prefix if
// the digest or the canonical grammar ever changes incompatibly.
const KeyPrefix = "rk1-"

// KeyOf maps a canonical RunSpec string to its stable store key — the
// id clients pass to GET /v1/results/{key}. Truncated SHA-256 keeps the
// key URL-safe and short; the full canonical string is stored in every
// record, so a (vanishingly unlikely) digest collision is detectable.
func KeyOf(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return KeyPrefix + hex.EncodeToString(sum[:16])
}

// Meta is the queryable description of one stored result. Family, Dim,
// Size, and Seed describe the measured machine (the guest, for
// emulations); HostFamily/HostDim/HostSize are set for emulations only.
type Meta struct {
	Key       string `json:"key"`
	Canonical string `json:"canonical"`
	Kind      string `json:"kind"`
	Family    string `json:"family,omitempty"`
	Dim       int    `json:"dim,omitempty"`
	Size      int    `json:"size,omitempty"`
	Seed      int64  `json:"seed,omitempty"`

	HostFamily string `json:"host_family,omitempty"`
	HostDim    int    `json:"host_dim,omitempty"`
	HostSize   int    `json:"host_size,omitempty"`

	// Version is the measurement version the body was computed under
	// (experiment.MeasurementVersion at append time).
	Version string `json:"version"`
	// Seq is the append sequence number — the stable pagination order of
	// GET /v1/results. Assigned by Append; monotone across restarts.
	Seq int64 `json:"seq"`
	// StoredUnixNS is the append wall-clock time.
	StoredUnixNS int64 `json:"stored_unix_ns"`
}

// record is the on-disk line format: the meta plus the compact JSON
// body. The wire form (json.MarshalIndent + newline) is recovered by
// re-indenting — key order is preserved by json.Indent — which is what
// lets the server answer byte-identical store hits.
type record struct {
	Meta
	Body json.RawMessage `json:"body"`
}

// indexEntry locates a record and carries the dedup digest.
type indexEntry struct {
	meta       Meta
	segment    string // file name within dir
	offset     int64  // byte offset of the record line
	length     int64  // line length including the trailing newline
	bodyDigest [32]byte
}

// Store is the append-only result store. Safe for concurrent use.
type Store struct {
	dir      string
	segBytes int64
	now      func() time.Time

	// wmu serializes appends and guards the write side (nextSeq,
	// active, activeN, sealed); every index change is made under both
	// locks. mu guards the index and the counters for readers and is
	// never held across a record write, so Get, Query and Len do not
	// wait on an append's disk I/O.
	wmu     sync.Mutex
	mu      sync.RWMutex
	byKey   map[string]*indexEntry
	ordered []*indexEntry // ascending Seq; superseded entries removed
	nextSeq int64
	active  *os.File
	activeN int64 // current size of the active segment
	sealed  int   // how many sealed segments exist (next seal number - 1)

	appends    int64 // records written to disk
	dupSkips   int64 // appends deduplicated away
	superseded int64 // appends that replaced an older record for the key
}

// DefaultSegmentBytes is the active-segment size past which Append
// seals it. Small enough that a crash re-scans little, large enough
// that a Table-4-scale sweep fits in a handful of files.
const DefaultSegmentBytes = 4 << 20

const activeName = "active.log"

// Open opens (creating if needed) a store directory, rebuilds the
// index from every segment, and truncates a torn tail record left by a
// crash mid-append. The second return of a successfully opened store is
// always nil; a store never half-opens.
func Open(dir string) (*Store, error) {
	return OpenWithSegmentBytes(dir, DefaultSegmentBytes)
}

// OpenWithSegmentBytes is Open with an explicit segment-roll threshold
// (tests use tiny segments to exercise sealing).
func OpenWithSegmentBytes(dir string, segBytes int64) (*Store, error) {
	if segBytes < 1 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		segBytes: segBytes,
		now:      time.Now,
		byKey:    make(map[string]*indexEntry),
		nextSeq:  1,
	}
	names, err := s.segmentNames()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if err := s.loadSegment(name, false); err != nil {
			return nil, err
		}
	}
	if err := s.loadSegment(activeName, true); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, activeName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open active segment: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat active segment: %w", err)
	}
	s.active = f
	s.activeN = info.Size()
	s.sealed = len(names)
	sort.Slice(s.ordered, func(i, j int) bool { return s.ordered[i].meta.Seq < s.ordered[j].meta.Seq })
	return s, nil
}

// segmentNames lists the sealed segments in ascending order.
func (s *Store) segmentNames() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", s.dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// loadSegment indexes one segment file. For the active segment
// (truncate=true) the first torn or invalid line ends the scan and the
// file is truncated back to the last complete record — the crash-safe
// reopen contract. Sealed segments were complete when renamed into
// place, so an invalid line there is corruption; it is skipped (the
// store degrades to missing that record, never to failing to open).
func (s *Store) loadSegment(name string, truncate bool) error {
	path := filepath.Join(s.dir, name)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: open segment %s: %w", name, err)
	}
	defer f.Close()

	var offset int64
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		complete := err == nil && len(line) > 0 && line[len(line)-1] == '\n'
		if len(line) == 0 {
			break
		}
		var rec record
		valid := complete && json.Unmarshal(line, &rec) == nil &&
			rec.Key != "" && rec.Seq > 0 && len(rec.Body) > 0
		if !valid {
			if truncate {
				// Torn tail: drop everything from the first bad byte on.
				if terr := os.Truncate(path, offset); terr != nil {
					return fmt.Errorf("store: truncating torn tail of %s at %d: %w", name, offset, terr)
				}
				return nil
			}
			offset += int64(len(line))
			if err != nil {
				break
			}
			continue
		}
		s.indexRecord(rec, name, offset, int64(len(line)))
		offset += int64(len(line))
		if err != nil {
			break
		}
	}
	return nil
}

// indexRecord installs one decoded record, superseding any older entry
// for the same key (later Seq wins — segments are scanned in order).
func (s *Store) indexRecord(rec record, segment string, offset, length int64) {
	e := &indexEntry{
		meta:       rec.Meta,
		segment:    segment,
		offset:     offset,
		length:     length,
		bodyDigest: sha256.Sum256(rec.Body),
	}
	if old, ok := s.byKey[rec.Key]; ok {
		if old.meta.Seq >= rec.Seq {
			return
		}
		for i, oe := range s.ordered {
			if oe == old {
				s.ordered = append(s.ordered[:i], s.ordered[i+1:]...)
				break
			}
		}
	}
	s.byKey[rec.Key] = e
	s.ordered = append(s.ordered, e)
	if rec.Seq >= s.nextSeq {
		s.nextSeq = rec.Seq + 1
	}
}

// Close closes the active segment. The store must not be used after.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}

// Len returns how many distinct keys the index currently holds.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ordered)
}

// Counts returns the append accounting: records written, appends
// deduplicated away (same key, version, and body), and appends that
// superseded an older record for their key.
func (s *Store) Counts() (appends, dupSkips, superseded int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appends, s.dupSkips, s.superseded
}

// Append durably records one result body under its meta. body must be
// the exact wire bytes of the 200 response (MarshalIndent + newline);
// it is stored compacted and recovered byte-identically by Body/Get.
// Re-appending an identical (key, version, body) triple is a free
// no-op; a new body or version for an existing key supersedes it, so a
// record re-measured under a new version is labelled with it even when
// its numbers did not change. Returns the record's assigned sequence
// number (the existing one on a dedup skip).
func (s *Store) Append(meta Meta, body []byte) (int64, error) {
	compact, err := compactBody(body)
	if err != nil {
		return 0, fmt.Errorf("store: body is not JSON: %w", err)
	}
	digest := sha256.Sum256(compact)

	meta.Version = strings.TrimSpace(meta.Version)

	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.active == nil {
		return 0, fmt.Errorf("store: append on closed store")
	}
	old, existed := s.byKey[meta.Key]
	if existed && old.bodyDigest == digest && old.meta.Version == meta.Version {
		s.mu.Lock()
		s.dupSkips++
		s.mu.Unlock()
		return old.meta.Seq, nil
	}
	meta.Seq = s.nextSeq
	meta.StoredUnixNS = s.now().UnixNano()
	line, err := json.Marshal(record{Meta: meta, Body: compact})
	if err != nil {
		return 0, fmt.Errorf("store: marshal record: %w", err)
	}
	line = append(line, '\n')
	// The record is on file before the index names it, so a reader that
	// finds the key can always read it.
	if _, err := s.active.Write(line); err != nil {
		return 0, fmt.Errorf("store: append: %w", err)
	}
	offset := s.activeN
	s.activeN += int64(len(line))
	s.nextSeq++
	s.mu.Lock()
	s.appends++
	if existed {
		s.superseded++
	}
	s.indexRecord(record{Meta: meta, Body: compact}, activeName, offset, int64(len(line)))
	s.mu.Unlock()
	if s.activeN >= s.segBytes {
		if err := s.seal(); err != nil {
			return meta.Seq, err
		}
	}
	return meta.Seq, nil
}

// seal renames the active segment into the numbered sequence and opens
// a fresh one. The rename is atomic, so a sealed segment is always a
// complete file; index entries pointing into it are repointed under mu
// together with the rename. Called with wmu held.
func (s *Store) seal() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: sealing active segment: %w", err)
	}
	name := fmt.Sprintf("seg-%08d.log", s.sealed+1)
	s.mu.Lock()
	if err := os.Rename(filepath.Join(s.dir, activeName), filepath.Join(s.dir, name)); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: sealing active segment: %w", err)
	}
	s.sealed++
	for _, e := range s.ordered {
		if e.segment == activeName {
			e.segment = name
		}
	}
	s.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(s.dir, activeName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening fresh active segment: %w", err)
	}
	s.active = f
	s.activeN = 0
	return nil
}

// compactBody strips the wire indentation so the stored line is
// one-line JSON; wireBody re-indents on the way out. json.Compact
// preserves key order, exactly like json.Indent, which is what makes
// the round trip byte-exact.
func compactBody(body []byte) (json.RawMessage, error) {
	if !json.Valid(body) {
		return nil, fmt.Errorf("invalid JSON")
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// Get returns the meta and the exact wire bytes for key: the stored
// compact body re-indented to the MarshalIndent form plus the trailing
// newline — byte-identical to the 200 response that was recorded.
func (s *Store) Get(key string) (Meta, []byte, bool) {
	s.mu.RLock()
	e, ok := s.byKey[key]
	if !ok {
		s.mu.RUnlock()
		return Meta{}, nil, false
	}
	meta := e.meta
	segment, offset, length := e.segment, e.offset, e.length
	s.mu.RUnlock()

	line, err := s.readAt(segment, offset, length)
	if err != nil {
		// The segment may have been sealed (renamed) between the index
		// read and the file read; retry once against the fresh location.
		s.mu.RLock()
		if e2, ok2 := s.byKey[key]; ok2 {
			segment, offset, length = e2.segment, e2.offset, e2.length
		}
		s.mu.RUnlock()
		if line, err = s.readAt(segment, offset, length); err != nil {
			return Meta{}, nil, false
		}
	}
	var rec record
	if json.Unmarshal(line, &rec) != nil || rec.Key != key {
		return Meta{}, nil, false
	}
	body, err := wireBody(rec.Body)
	if err != nil {
		return Meta{}, nil, false
	}
	return meta, body, true
}

func (s *Store) readAt(segment string, offset, length int64) ([]byte, error) {
	f, err := os.Open(filepath.Join(s.dir, segment))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, offset); err != nil {
		return nil, err
	}
	return buf, nil
}

// wireBody restores the exact wire form: indent with two spaces and
// append the newline, matching json.MarshalIndent + '\n' on the
// serving path (key order is preserved by json.Indent).
func wireBody(compact json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// Query filters the index. Zero-value fields match everything.
type Query struct {
	Kind   string
	Family string // matches Family or HostFamily
	Since  time.Time
	// Cursor resumes after the record with this Seq (exclusive); 0
	// starts from the beginning.
	Cursor int64
	// Limit bounds the page (default DefaultQueryLimit, max
	// MaxQueryLimit).
	Limit int
}

// DefaultQueryLimit and MaxQueryLimit bound one /v1/results page.
const (
	DefaultQueryLimit = 100
	MaxQueryLimit     = 1000
)

// Query returns matching record metas in ascending Seq order starting
// after q.Cursor, plus the cursor for the next page (0 when the page
// reached the end of the index). Pagination is stable: Seq is assigned
// at append time and never reused, so concurrent appends only ever add
// records after an in-progress walk.
func (s *Store) Query(q Query) (metas []Meta, next int64) {
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	if limit > MaxQueryLimit {
		limit = MaxQueryLimit
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Binary search to the first Seq > cursor; ordered is Seq-ascending.
	lo := sort.Search(len(s.ordered), func(i int) bool { return s.ordered[i].meta.Seq > q.Cursor })
	for i := lo; i < len(s.ordered); i++ {
		m := s.ordered[i].meta
		if q.Kind != "" && m.Kind != q.Kind {
			continue
		}
		if q.Family != "" && m.Family != q.Family && m.HostFamily != q.Family {
			continue
		}
		if !q.Since.IsZero() && m.StoredUnixNS < q.Since.UnixNano() {
			continue
		}
		if len(metas) == limit {
			return metas, metas[len(metas)-1].Seq
		}
		metas = append(metas, m)
	}
	return metas, 0
}

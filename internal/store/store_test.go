package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// wire builds a MarshalIndent-style body the way the server does.
func wire(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func metaFor(canonical, kind, family string, size int, seed int64) Meta {
	return Meta{
		Key:       KeyOf(canonical),
		Canonical: canonical,
		Kind:      kind,
		Family:    family,
		Size:      size,
		Seed:      seed,
		Version:   "m-test",
	}
}

func appendN(t *testing.T, s *Store, n int) []Meta {
	t.Helper()
	metas := make([]Meta, 0, n)
	for i := 0; i < n; i++ {
		canonical := fmt.Sprintf("runspec/v1/{\"kind\":\"beta\",\"i\":%d}", i)
		m := metaFor(canonical, "beta", "Mesh", 16+i, int64(i))
		body := wire(t, map[string]any{"kind": "beta", "beta": float64(i) + 0.5, "i": i})
		if _, err := s.Append(m, body); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		metas = append(metas, m)
	}
	return metas
}

func TestAppendGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	canonical := `runspec/v1/{"kind":"beta","machine":{"family":"Mesh","dim":2,"size":16}}`
	m := metaFor(canonical, "beta", "Mesh", 16, 3)
	body := wire(t, map[string]any{"kind": "beta", "beta": 1.25, "nested": map[string]any{"b": 2, "a": 1}})
	seq, err := s.Append(m, body)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	got, gotBody, ok := s.Get(m.Key)
	if !ok {
		t.Fatal("Get missed a just-appended key")
	}
	if !bytes.Equal(gotBody, body) {
		t.Fatalf("body round trip not byte-identical:\ngot  %q\nwant %q", gotBody, body)
	}
	if got.Canonical != canonical || got.Kind != "beta" || got.Seq != 1 {
		t.Fatalf("meta round trip: %+v", got)
	}

	// Same key, same body: dedup, no new record.
	seq2, err := s.Append(m, body)
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != seq {
		t.Fatalf("dedup append returned seq %d, want %d", seq2, seq)
	}
	appends, dups, _ := s.Counts()
	if appends != 1 || dups != 1 {
		t.Fatalf("appends=%d dups=%d, want 1/1", appends, dups)
	}

	// Same key, new body: supersedes.
	body2 := wire(t, map[string]any{"kind": "beta", "beta": 9.75})
	if _, err := s.Append(m, body2); err != nil {
		t.Fatal(err)
	}
	_, gotBody2, _ := s.Get(m.Key)
	if !bytes.Equal(gotBody2, body2) {
		t.Fatal("superseding append did not win")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after supersede, want 1", s.Len())
	}

	// Same key, same body, new version: supersedes too, so the record
	// carries the version it was last measured under.
	m.Version = "m-next"
	if _, err := s.Append(m, body2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Get(m.Key); got.Version != "m-next" {
		t.Fatalf("version after re-append = %q, want m-next", got.Version)
	}
	if appends, _, superseded := s.Counts(); appends != 3 || superseded != 2 {
		t.Fatalf("appends=%d superseded=%d, want 3/2", appends, superseded)
	}
}

// TestTornTailTruncatedOnReopen is the crash-recovery contract: a torn
// record at the active tail is truncated away, every complete record
// survives, and the store appends cleanly afterwards.
func TestTornTailTruncatedOnReopen(t *testing.T) {
	for _, tear := range []string{
		"{\"key\":\"rk1-partial",          // cut mid-JSON, no newline
		"{\"key\":\"rk1-x\",\"seq\":0}\n", // complete line, invalid record (seq 0, no body)
		"garbage that is not json at all", // cut, not JSON
	} {
		t.Run(fmt.Sprintf("tear=%.12q", tear), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			metas := appendN(t, s, 5)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, activeName)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tear); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen over torn tail: %v", err)
			}
			defer s2.Close()
			if s2.Len() != len(metas) {
				t.Fatalf("reopen holds %d records, want %d", s2.Len(), len(metas))
			}
			for _, m := range metas {
				if _, _, ok := s2.Get(m.Key); !ok {
					t.Fatalf("record %s lost in recovery", m.Key)
				}
			}
			// The tail is gone from disk and appends keep working.
			m := metaFor("runspec/v1/{\"after\":\"tear\"}", "lambda", "Torus", 9, 1)
			if _, err := s2.Append(m, wire(t, map[string]any{"kind": "lambda", "diameter": 4})); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if _, _, ok := s2.Get(m.Key); !ok {
				t.Fatal("post-recovery append invisible")
			}

			s3, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if s3.Len() != len(metas)+1 {
				t.Fatalf("second reopen holds %d records, want %d", s3.Len(), len(metas)+1)
			}
		})
	}
}

// TestIndexRebuildByteIdentical: a reopened store answers every query
// byte-identically to the pre-restart store — the JSON of the metas and
// every body must match exactly.
func TestIndexRebuildByteIdentical(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the test also covers sealing + multi-segment
	// rebuild.
	s, err := OpenWithSegmentBytes(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	metas := appendN(t, s, 20)

	before, beforeNext := s.Query(Query{Limit: 7})
	beforeAll, _ := s.Query(Query{Limit: MaxQueryLimit})
	beforeBodies := make(map[string][]byte)
	for _, m := range metas {
		_, b, ok := s.Get(m.Key)
		if !ok {
			t.Fatalf("pre-restart Get(%s) missed", m.Key)
		}
		beforeBodies[m.Key] = b
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenWithSegmentBytes(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after, afterNext := s2.Query(Query{Limit: 7})
	afterAll, _ := s2.Query(Query{Limit: MaxQueryLimit})
	if beforeNext != afterNext {
		t.Fatalf("pagination cursor drifted across restart: %d vs %d", beforeNext, afterNext)
	}
	bj, _ := json.Marshal(before)
	aj, _ := json.Marshal(after)
	if !bytes.Equal(bj, aj) {
		t.Fatalf("first page drifted across restart:\n%s\n%s", bj, aj)
	}
	bj, _ = json.Marshal(beforeAll)
	aj, _ = json.Marshal(afterAll)
	if !bytes.Equal(bj, aj) {
		t.Fatalf("full listing drifted across restart:\n%s\n%s", bj, aj)
	}
	for key, want := range beforeBodies {
		_, got, ok := s2.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("body for %s drifted across restart (hit=%v)", key, ok)
		}
	}
	// Sequence numbering continues monotonically after restart.
	m := metaFor("runspec/v1/{\"post\":\"restart\"}", "beta", "Mesh", 4, 9)
	seq, err := s2.Append(m, wire(t, map[string]any{"kind": "beta"}))
	if err != nil {
		t.Fatal(err)
	}
	if want := metas[len(metas)-1]; seq <= beforeAll[len(beforeAll)-1].Seq {
		t.Fatalf("post-restart seq %d did not advance past %d (%+v)", seq, beforeAll[len(beforeAll)-1].Seq, want)
	}
}

// TestConcurrentAppend hammers Append/Get/Query from many goroutines;
// run under -race. Every writer's final record must be readable.
func TestConcurrentAppend(t *testing.T) {
	s, err := OpenWithSegmentBytes(t.TempDir(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				canonical := fmt.Sprintf("runspec/v1/{\"w\":%d,\"i\":%d}", w, i)
				m := metaFor(canonical, "beta", "Mesh", 16, int64(i))
				body := wire(t, map[string]any{"w": w, "i": i})
				if _, err := s.Append(m, body); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
				// Interleave reads with writes.
				s.Get(m.Key)
				s.Query(Query{Limit: 5})
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", s.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			canonical := fmt.Sprintf("runspec/v1/{\"w\":%d,\"i\":%d}", w, i)
			_, body, ok := s.Get(KeyOf(canonical))
			if !ok {
				t.Fatalf("writer %d record %d unreadable", w, i)
			}
			var got map[string]int
			if err := json.Unmarshal(body, &got); err != nil || got["w"] != w || got["i"] != i {
				t.Fatalf("writer %d record %d corrupted: %s", w, i, body)
			}
		}
	}
}

func TestQueryFiltersAndPagination(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := time.Unix(1000, 0)
	clock := base
	s.now = func() time.Time { clock = clock.Add(time.Second); return clock }

	for i := 0; i < 10; i++ {
		family := "Mesh"
		kind := "beta"
		if i%2 == 1 {
			family, kind = "Torus", "lambda"
		}
		m := metaFor(fmt.Sprintf("runspec/v1/{\"q\":%d}", i), kind, family, 16, 0)
		if _, err := s.Append(m, wire(t, map[string]int{"i": i})); err != nil {
			t.Fatal(err)
		}
	}
	// Emulation-style record: family matches on host too.
	em := metaFor(`runspec/v1/{"q":"em"}`, "emulate", "Butterfly", 16, 0)
	em.HostFamily, em.HostSize = "Mesh", 64
	if _, err := s.Append(em, wire(t, map[string]string{"kind": "emulate"})); err != nil {
		t.Fatal(err)
	}

	if got, _ := s.Query(Query{Kind: "beta"}); len(got) != 5 {
		t.Fatalf("kind filter returned %d, want 5", len(got))
	}
	if got, _ := s.Query(Query{Family: "Mesh"}); len(got) != 6 { // 5 beta + the emulation via HostFamily
		t.Fatalf("family filter returned %d, want 6", len(got))
	}
	if got, _ := s.Query(Query{Since: base.Add(8500 * time.Millisecond)}); len(got) != 3 {
		t.Fatalf("since filter returned %d, want 3", len(got))
	}

	// Stable pagination: walk in pages of 3 and compare to one big page.
	all, _ := s.Query(Query{Limit: MaxQueryLimit})
	var walked []Meta
	var cursor int64
	for {
		page, next := s.Query(Query{Cursor: cursor, Limit: 3})
		walked = append(walked, page...)
		if next == 0 {
			break
		}
		cursor = next
	}
	if !reflect.DeepEqual(all, walked) {
		t.Fatalf("paged walk differs from full listing:\n%+v\n%+v", all, walked)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("listing not Seq-ascending at %d", i)
		}
	}
}

// TestSealedSegments: appends roll the active segment; records in
// sealed segments stay readable, and Get survives a seal racing a read.
func TestSealedSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWithSegmentBytes(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	metas := appendN(t, s, 12)
	names, err := s.segmentNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no segments sealed despite tiny threshold")
	}
	for _, m := range metas {
		if _, _, ok := s.Get(m.Key); !ok {
			t.Fatalf("record %s unreadable after sealing", m.Key)
		}
	}
}

func TestKeyOfStability(t *testing.T) {
	// The key format is part of the HTTP API; lock it.
	got := KeyOf("runspec/v1/{}")
	if want := "rk1-d5bb09bb51bc1e969da4083b6b38f8dd"; got != want {
		t.Fatalf("KeyOf drifted: got %s, want %s", got, want)
	}
	if KeyOf("a") == KeyOf("b") {
		t.Fatal("distinct canonicals share a key")
	}
}

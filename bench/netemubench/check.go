package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"repro/internal/runspec"
	"repro/internal/server"
)

// sampleEvery picks which answers are re-derived in process after the
// window: request indexes divisible by it.
const sampleEvery = 64

type digest = [sha256.Size]byte

// checker verifies answers. Cheap checks run as answers arrive; the
// sampled answers are compared byte for byte against in-process
// references after the window, so reference work never competes with
// the measured load.
type checker struct {
	mu      sync.Mutex
	sampled []sampledAnswer
	keyGets []keyGet
	// posted holds, per hot-read spec id, the digest of the body its POST
	// returned (history ids from the prefill).
	posted   map[int]digest
	failures []string // the first few, for the report
}

type sampledAnswer struct {
	r    request
	body []byte
}

type keyGet struct {
	spec int
	sum  digest
}

func newChecker() *checker { return &checker{posted: make(map[int]digest)} }

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// observe records one answer and reports whether it passes the checks
// that can run immediately.
func (c *checker) observe(i int, r request, status int, body []byte) bool {
	if status != http.StatusOK {
		c.fail("%s %s: status %d: %.200s", r.method, r.path, status, body)
		return false
	}
	switch r.class {
	case classMeasure:
		if r.spec >= 0 && !c.recordPost(r.spec, sha256.Sum256(body)) {
			c.fail("%s %s: spec %d answered with different bytes than its earlier POST", r.method, r.path, r.spec)
			return false
		}
	case classSweep:
		points, err := splitStream(body)
		if err == nil && len(points) != r.points {
			err = fmt.Errorf("%d of %d points", len(points), r.points)
		}
		if err != nil {
			c.fail("sweep %d: %v", i, err)
			return false
		}
	case classResultKey:
		c.mu.Lock()
		c.keyGets = append(c.keyGets, keyGet{spec: r.spec, sum: sha256.Sum256(body)})
		c.mu.Unlock()
		return true
	case classResultQuery:
		var page struct {
			Results []json.RawMessage `json:"results"`
			Count   int               `json:"count"`
		}
		if err := json.Unmarshal(body, &page); err != nil || page.Count != len(page.Results) {
			c.fail("%s: not a results page: %.200s", r.path, body)
			return false
		}
		return true
	}
	if i%sampleEvery == 0 {
		c.mu.Lock()
		c.sampled = append(c.sampled, sampledAnswer{r: r, body: body})
		c.mu.Unlock()
	}
	return true
}

// recordPost remembers the first body a spec's POST returned and
// reports whether a later one matches it.
func (c *checker) recordPost(spec int, sum digest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.posted[spec]; ok {
		return prev == sum
	}
	c.posted[spec] = sum
	return true
}

// verify compares every sampled answer with its in-process reference
// and every GET /v1/results/{key} body with its spec's POST body. It
// returns how many failed.
func (c *checker) verify() int {
	refs := newReferences()
	n := 0
	for _, s := range c.sampled {
		want, err := refs.body(s.r)
		if err != nil {
			c.fail("reference for %s %s: %v", s.r.method, s.r.path, err)
			n++
			continue
		}
		if want != nil && !bytes.Equal(want, s.body) {
			c.fail("%s %s: answer differs from the in-process reference (%d vs %d bytes)", s.r.method, s.r.path, len(s.body), len(want))
			n++
		}
	}
	for _, g := range c.keyGets {
		if want, ok := c.posted[g.spec]; !ok || want != g.sum {
			c.fail("GET of spec %d's result differs from its POST body", g.spec)
			n++
		}
	}
	return n
}

// references derives the bytes a correct server answers with, in
// process: MarshalIndent(runspec.ExecuteCached(spec)) plus a newline for
// specs (concatenated for sweeps), and a single-node server for the
// rest.
type references struct {
	cache *runspec.ArtifactCache
	node  http.Handler
}

func newReferences() *references {
	return &references{cache: runspec.NewArtifactCache(0, 0), node: server.New(server.Config{}).Handler()}
}

// body returns the reference answer for r, or nil when r's answer
// depends on server state (store listings, discovery) and is checked by
// shape only.
func (f *references) body(r request) ([]byte, error) {
	switch {
	case r.class == classMeasure:
		var s runspec.Spec
		if err := json.Unmarshal(r.body, &s); err != nil {
			return nil, err
		}
		return f.execute(s)
	case r.class == classSweep:
		var sw runspec.SweepSpec
		if err := json.Unmarshal(r.body, &sw); err != nil {
			return nil, err
		}
		specs, err := sw.Specs()
		if err != nil {
			return nil, err
		}
		var all []byte
		for _, s := range specs {
			b, err := f.execute(s)
			if err != nil {
				return nil, err
			}
			all = append(all, b...)
		}
		return all, nil
	case r.method == http.MethodGet && strings.HasPrefix(r.path, "/v1/tables/"):
		rec := httptest.NewRecorder()
		f.node.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, nil))
		return rec.Body.Bytes(), nil
	}
	return nil, nil
}

func (f *references) execute(s runspec.Spec) ([]byte, error) {
	res, err := runspec.ExecuteCached(f.cache, s)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// splitStream cuts a sweep answer into its point bodies. Each point is
// a MarshalIndent document plus a newline; an error envelope in place
// of a point fails the split.
func splitStream(body []byte) ([][]byte, error) {
	var out [][]byte
	dec := json.NewDecoder(bytes.NewReader(body))
	start := 0
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("point %d: %w", len(out), err)
		}
		if bytes.HasPrefix(raw, []byte(`{"error"`)) {
			return nil, fmt.Errorf("point %d is an error: %s", len(out), raw)
		}
		end := int(dec.InputOffset())
		if end >= len(body) || body[end] != '\n' {
			return nil, fmt.Errorf("point %d is not newline-terminated", len(out))
		}
		out = append(out, body[start:end+1])
		start = end + 1
	}
}

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/experiment"
	"repro/internal/runspec"
	"repro/internal/store"
)

// The result store: every 200 the spec endpoints serve is durably
// appended to cfg.Store (recordResult, called on the flight leader's
// goroutine before the flight publishes — by the time any client holds
// the response bytes, the record is on disk), and a flight leader
// answers from it before forwarding or executing (stored). The three
// GET endpoints below serve the accumulated results back.
//
// Byte identity is the contract: a stored body is exactly the bytes
// /v1/measure produced for that spec — store.Get re-indents the
// compacted record through json.Indent, which preserves key order, so
// the round trip is loss-free (test- and CI-enforced, including across
// a restart over the same store dir).

// storeMeta derives the index row for one completed spec.
func storeMeta(spec runspec.Spec, canonical string) store.Meta {
	m := store.Meta{
		Key:       store.KeyOf(canonical),
		Canonical: canonical,
		Kind:      string(spec.Kind),
		Version:   experiment.MeasurementVersion,
	}
	if spec.Kind == runspec.KindEmulate {
		if spec.Guest != nil {
			m.Family, m.Dim, m.Size, m.Seed = spec.Guest.Family, spec.Guest.Dim, spec.Guest.Size, spec.Guest.Seed
		}
		if spec.Host != nil {
			m.HostFamily, m.HostDim, m.HostSize = spec.Host.Family, spec.Host.Dim, spec.Host.Size
		}
		return m
	}
	if spec.Machine != nil {
		m.Family, m.Dim, m.Size, m.Seed = spec.Machine.Family, spec.Machine.Dim, spec.Machine.Size, spec.Machine.Seed
	}
	return m
}

// recordResult appends one served 200 to the result store. Failures
// are counted, not fatal: persistence is best-effort relative to
// serving, and the next identical request retries the append (the
// digest dedup makes the retry free when the first one did land).
func (s *Server) recordResult(spec runspec.Spec, canonical string, body []byte) {
	if s.cfg.Store == nil {
		return
	}
	if _, err := s.cfg.Store.Append(storeMeta(spec, canonical), body); err != nil {
		s.metrics.storeErrors.Add(1)
		return
	}
	s.metrics.storeAppends.Add(1)
}

// current reports whether a stored record was measured under this
// build's measurement version. A record from another version may hold
// bytes the spec no longer produces, so no endpoint answers from it; only
// the /v1/results listing shows it, with its version.
func current(meta store.Meta) bool { return meta.Version == experiment.MeasurementVersion }

// stored returns the store's body for a canonical spec, if it holds a
// current one. The canonical check guards against a key digest collision.
func (s *Server) stored(canonical string) ([]byte, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	meta, body, ok := s.cfg.Store.Get(store.KeyOf(canonical))
	if !ok || !current(meta) || meta.Canonical != canonical {
		return nil, false
	}
	return body, true
}

// resultsPage is the GET /v1/results response document.
type resultsPage struct {
	Results []store.Meta `json:"results"`
	// NextCursor resumes the walk (pass as ?cursor=); 0 means the page
	// reached the end of the index.
	NextCursor int64 `json:"next_cursor"`
	// Count is len(Results), for clients that stream-parse.
	Count int `json:"count"`
}

// handleResults serves GET /v1/results — the paginated index listing.
// Filters: ?kind=beta&family=Mesh&since=RFC3339-or-unix-seconds;
// pagination: ?limit=N&cursor=C where C is the previous page's
// next_cursor. Pagination is stable under concurrent appends: the
// cursor is an append sequence number, never an offset.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "result store disabled (start netemud with -store DIR)")
		return
	}
	q := r.URL.Query()
	sq := store.Query{Kind: q.Get("kind"), Family: q.Get("family")}
	if raw := q.Get("since"); raw != "" {
		since, err := parseSince(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadSpec, "bad since: "+err.Error())
			return
		}
		sq.Since = since
	}
	var err error
	if sq.Limit, err = queryInt(q.Get("limit"), 0); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadSpec, "bad limit: "+err.Error())
		return
	}
	if raw := q.Get("cursor"); raw != "" {
		if sq.Cursor, err = strconv.ParseInt(raw, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadSpec, "bad cursor: "+err.Error())
			return
		}
	}
	metas, next := s.cfg.Store.Query(sq)
	if metas == nil {
		metas = []store.Meta{}
	}
	s.metrics.resultsServed.Add(1)
	writeIndented(w, resultsPage{Results: metas, NextCursor: next, Count: len(metas)})
}

// handleResultByKey serves GET /v1/results/{key}: the stored response
// body for one canonical key, byte-identical to the /v1/measure (or
// /v1/emulate, /v1/sweep point) response that produced it.
func (s *Server) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "result store disabled (start netemud with -store DIR)")
		return
	}
	key := r.PathValue("key")
	meta, body, ok := s.cfg.Store.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "no stored result for key "+key)
		return
	}
	if !current(meta) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf(
			"stored result for key %s was measured under version %s, not the current %s",
			key, meta.Version, experiment.MeasurementVersion))
		return
	}
	s.metrics.resultsServed.Add(1)
	writeBody(w, body)
}

// crossoverPoint is one stored emulation projected onto the crossover
// surface: which guest ran on which host, at what sizes, with what
// measured slowdown.
type crossoverPoint struct {
	Key       string  `json:"key"`
	GuestDim  int     `json:"guest_dim,omitempty"`
	GuestSize int     `json:"guest_size"`
	HostDim   int     `json:"host_dim,omitempty"`
	HostSize  int     `json:"host_size"`
	Mode      string  `json:"mode,omitempty"`
	Slowdown  float64 `json:"slowdown"`
	// Inefficiency is slowdown normalized by the host/guest size ratio —
	// the paper's measure of how far the emulation sits from the
	// bandwidth lower bound.
	Inefficiency float64 `json:"inefficiency,omitempty"`
	LoadBound    float64 `json:"load_bound,omitempty"`
}

// crossoverSurface is the GET /v1/crossover response document.
type crossoverSurface struct {
	Guest  string           `json:"guest"`
	Host   string           `json:"host"`
	Points []crossoverPoint `json:"points"`
	Count  int              `json:"count"`
}

// handleCrossover serves GET /v1/crossover?guest=F&host=G: every
// stored emulation of guest family F on host family G, assembled into
// one surface ordered by (guest size, host size, key). This is the
// paper's table shape — slowdown over a (guest, host, size) grid —
// served from accumulated grid points instead of recomputed.
func (s *Server) handleCrossover(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "result store disabled (start netemud with -store DIR)")
		return
	}
	guest := r.URL.Query().Get("guest")
	host := r.URL.Query().Get("host")
	if guest == "" || host == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadSpec, "crossover needs both ?guest= and ?host= family names")
		return
	}
	surface := crossoverSurface{Guest: guest, Host: host, Points: []crossoverPoint{}}
	// Walk the full emulate index in pages; the guest-family filter
	// happens here because store.Query's family filter matches either
	// side (by design — "everything touching Mesh"), and crossover needs
	// the exact (guest, host) orientation.
	var cursor int64
	for {
		metas, next := s.cfg.Store.Query(store.Query{Kind: string(runspec.KindEmulate), Cursor: cursor, Limit: store.MaxQueryLimit})
		for _, m := range metas {
			if m.Family != guest || m.HostFamily != host {
				continue
			}
			meta, body, ok := s.cfg.Store.Get(m.Key)
			if !ok || !current(meta) {
				continue
			}
			var res runspec.Result
			if err := json.Unmarshal(body, &res); err != nil || res.Emulation == nil {
				continue
			}
			pt := crossoverPoint{
				Key:          m.Key,
				GuestDim:     m.Dim,
				GuestSize:    m.Size,
				HostDim:      m.HostDim,
				HostSize:     m.HostSize,
				Slowdown:     res.Emulation.Slowdown,
				Inefficiency: res.Emulation.Inefficiency,
				LoadBound:    res.Emulation.LoadBound,
			}
			if res.Spec.Mode != "" {
				pt.Mode = res.Spec.Mode
			}
			surface.Points = append(surface.Points, pt)
		}
		if next == 0 {
			break
		}
		cursor = next
	}
	sort.Slice(surface.Points, func(i, j int) bool {
		a, b := surface.Points[i], surface.Points[j]
		if a.GuestSize != b.GuestSize {
			return a.GuestSize < b.GuestSize
		}
		if a.HostSize != b.HostSize {
			return a.HostSize < b.HostSize
		}
		return a.Key < b.Key
	})
	surface.Count = len(surface.Points)
	s.metrics.resultsServed.Add(1)
	writeIndented(w, surface)
}

// parseSince accepts RFC3339 or integer unix seconds.
func parseSince(raw string) (time.Time, error) {
	if secs, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return time.Unix(secs, 0), nil
	}
	return time.Parse(time.RFC3339, raw)
}

// writeIndented marshals v the way every other netemud body is
// rendered: MarshalIndent two-space, newline-terminated.
func writeIndented(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "encoding response: "+err.Error())
		return
	}
	writeBody(w, append(b, '\n'))
}

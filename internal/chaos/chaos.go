// Package chaos is the deterministic fault-injection layer for the
// netemud serving stack: a schedule grammar (mirroring
// topology.ParseFaultSpec, but for the cluster's HTTP plane instead of
// an emulated machine's wires) and a seeded http.RoundTripper that
// executes a schedule against forwarded traffic. Every injected fault
// is a pure function of (seed, request index, clause index), so a chaos
// run is exactly reproducible: same seed, same plan, same request
// order — same faults, bit for bit. That is what lets cmd/netemuchaos
// assert byte-identity against a fault-free reference instead of
// eyeballing flaky soak logs.
//
// Two clause families share one spec string:
//
//   - per-request faults, triggered probabilistically ("@p0.1" = 10% of
//     requests, decided by the seeded hash of the request index):
//
//     latency:200ms@p0.1   delay the forward 200ms
//     drop@p0.05           fail at the transport layer, never forwarded
//     truncate@p0.02       forward, then cut the response body in half
//     (silently: Content-Length is fixed up, so
//     only body validation can catch it)
//
//   - worker-lifecycle events, triggered on the virtual timeline
//     ("@t30s"; the injector advances virtual time by a fixed quantum
//     per request — default one second — so an event fires at a
//     deterministic request index, not at a wall-clock instant):
//
//     freeze:w1@t30s       worker 1 stops answering: requests to it
//     hang until the caller's deadline
//     crash:w2@t60s        worker 2 refuses connections
//     heal@t90s            every frozen/crashed worker recovers
//
// Workers are named w1..wN, 1-based indices into the pool list the
// injector is built with — the same order the coordinator's -workers
// flag uses.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/measure"
)

// ClauseKind classifies one clause of a chaos plan.
type ClauseKind int

const (
	// Latency delays a forwarded request by Delay with probability Prob.
	Latency ClauseKind = iota
	// Drop fails a request at the transport layer with probability Prob.
	Drop
	// Truncate cuts a response body in half (silently — headers are
	// fixed up) with probability Prob.
	Truncate
	// Freeze makes worker Worker hang from virtual time At until a Heal.
	Freeze
	// Crash makes worker Worker refuse connections from At until a Heal.
	Crash
	// Heal revives every frozen and crashed worker at At.
	Heal
)

func (k ClauseKind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Drop:
		return "drop"
	case Truncate:
		return "truncate"
	case Freeze:
		return "freeze"
	case Crash:
		return "crash"
	case Heal:
		return "heal"
	default:
		return fmt.Sprintf("ClauseKind(%d)", int(k))
	}
}

// probabilistic reports whether k is a per-request fault (@p trigger)
// as opposed to a timeline event (@t trigger).
func (k ClauseKind) probabilistic() bool {
	return k == Latency || k == Drop || k == Truncate
}

// Clause is one entry of a chaos plan.
type Clause struct {
	Kind ClauseKind
	// Prob is the per-request probability for Latency/Drop/Truncate,
	// in (0, 1].
	Prob float64
	// Delay is the injected latency for Latency clauses (> 0).
	Delay time.Duration
	// Worker is the 1-based pool index for Freeze/Crash.
	Worker int
	// At is the virtual-timeline trigger for Freeze/Crash/Heal (>= 0).
	At time.Duration
}

func (c Clause) String() string {
	switch c.Kind {
	case Latency:
		return fmt.Sprintf("latency:%s@p%s", c.Delay, formatProb(c.Prob))
	case Drop:
		return "drop@p" + formatProb(c.Prob)
	case Truncate:
		return "truncate@p" + formatProb(c.Prob)
	case Freeze:
		return fmt.Sprintf("freeze:w%d@t%s", c.Worker, c.At)
	case Crash:
		return fmt.Sprintf("crash:w%d@t%s", c.Worker, c.At)
	default:
		return fmt.Sprintf("heal@t%s", c.At)
	}
}

func formatProb(p float64) string {
	return strconv.FormatFloat(p, 'g', -1, 64)
}

// Plan is a parsed chaos schedule: probabilistic clauses first (input
// order, each keyed by its position for the seeded decisions), then
// timeline events sorted by At.
type Plan []Clause

// String renders the plan in the spec format ParseChaosSpec accepts;
// Parse(plan.String()) reproduces the plan exactly (the fuzz-tested
// round-trip contract).
func (p Plan) String() string {
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// ParseChaosSpec parses a comma-separated chaos spec, e.g.
//
//	latency:200ms@p0.1,drop@p0.05,truncate@p0.02,freeze:w1@t30s,crash:w2@t60s,heal@t90s
//
// Durations use time.ParseDuration syntax; probabilities are decimals
// in (0, 1]; workers are w1..wN. Clauses may appear in any order; the
// returned plan lists probabilistic clauses first (in input order) and
// timeline events sorted by trigger time.
func ParseChaosSpec(spec string) (Plan, error) {
	var probClauses, timeClauses Plan
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		head, trigger, ok := strings.Cut(raw, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: clause %q has no @p<prob> or @t<time> trigger", raw)
		}
		kindPart, arg, hasArg := strings.Cut(head, ":")
		var c Clause
		switch kindPart {
		case "latency":
			if !hasArg {
				return nil, fmt.Errorf("chaos: clause %q: latency needs a duration (latency:200ms@p0.1)", raw)
			}
			d, err := time.ParseDuration(arg)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("chaos: clause %q: bad latency duration %q", raw, arg)
			}
			c = Clause{Kind: Latency, Delay: d}
		case "drop":
			if hasArg {
				return nil, fmt.Errorf("chaos: clause %q: drop takes no argument", raw)
			}
			c = Clause{Kind: Drop}
		case "truncate":
			if hasArg {
				return nil, fmt.Errorf("chaos: clause %q: truncate takes no argument", raw)
			}
			c = Clause{Kind: Truncate}
		case "freeze", "crash":
			if !hasArg {
				return nil, fmt.Errorf("chaos: clause %q: %s needs a worker (%s:w1@t30s)", raw, kindPart, kindPart)
			}
			wid, err := parseWorker(arg)
			if err != nil {
				return nil, fmt.Errorf("chaos: clause %q: %v", raw, err)
			}
			c = Clause{Kind: Freeze, Worker: wid}
			if kindPart == "crash" {
				c.Kind = Crash
			}
		case "heal":
			if hasArg {
				return nil, fmt.Errorf("chaos: clause %q: heal takes no argument", raw)
			}
			c = Clause{Kind: Heal}
		default:
			return nil, fmt.Errorf("chaos: clause %q: unknown kind %q (want latency, drop, truncate, freeze, crash, or heal)", raw, kindPart)
		}

		switch {
		case strings.HasPrefix(trigger, "p"):
			if !c.Kind.probabilistic() {
				return nil, fmt.Errorf("chaos: clause %q: %s is a timeline event and needs @t<time>, not @p", raw, c.Kind)
			}
			prob, err := strconv.ParseFloat(trigger[1:], 64)
			// The negated range check also rejects NaN, which compares
			// false to everything and would otherwise slip through.
			if err != nil || !(prob > 0 && prob <= 1) {
				return nil, fmt.Errorf("chaos: clause %q: probability must be in (0,1], got %q", raw, trigger[1:])
			}
			c.Prob = prob
			probClauses = append(probClauses, c)
		case strings.HasPrefix(trigger, "t"):
			if c.Kind.probabilistic() {
				return nil, fmt.Errorf("chaos: clause %q: %s is a per-request fault and needs @p<prob>, not @t", raw, c.Kind)
			}
			at, err := time.ParseDuration(trigger[1:])
			if err != nil || at < 0 {
				return nil, fmt.Errorf("chaos: clause %q: bad trigger time %q", raw, trigger[1:])
			}
			c.At = at
			timeClauses = append(timeClauses, c)
		default:
			return nil, fmt.Errorf("chaos: clause %q: trigger must be p<prob> or t<time>, got %q", raw, trigger)
		}
	}
	if len(probClauses)+len(timeClauses) == 0 {
		return nil, fmt.Errorf("chaos: empty spec %q", spec)
	}
	sort.SliceStable(timeClauses, func(i, j int) bool { return timeClauses[i].At < timeClauses[j].At })
	return append(probClauses, timeClauses...), nil
}

func parseWorker(arg string) (int, error) {
	if !strings.HasPrefix(arg, "w") {
		return 0, fmt.Errorf("worker must look like w1, got %q", arg)
	}
	n, err := strconv.Atoi(arg[1:])
	if err != nil || n < 1 {
		return 0, fmt.Errorf("worker index must be a positive integer, got %q", arg[1:])
	}
	return n, nil
}

// WorkerState is a worker's condition on the virtual timeline.
type WorkerState int

const (
	// OK: the worker answers normally (per-request faults still apply).
	OK WorkerState = iota
	// Frozen: requests to the worker hang until the caller's deadline.
	Frozen
	// Crashed: requests to the worker fail immediately at the transport.
	Crashed
)

func (s WorkerState) String() string {
	switch s {
	case OK:
		return "ok"
	case Frozen:
		return "frozen"
	case Crashed:
		return "crashed"
	default:
		return fmt.Sprintf("WorkerState(%d)", int(s))
	}
}

// WorkerStateAt replays the plan's timeline events up to virtual time
// vt and returns the state of the 1-based worker index. A pure function
// of (plan, worker, vt) — the injector calls it per request with
// vt = requestIndex × TimePerRequest.
func (p Plan) WorkerStateAt(worker int, vt time.Duration) WorkerState {
	state := OK
	for _, c := range p {
		if c.Kind.probabilistic() || c.At > vt {
			continue
		}
		switch c.Kind {
		case Heal:
			state = OK
		case Freeze:
			if c.Worker == worker {
				state = Frozen
			}
		case Crash:
			if c.Worker == worker {
				state = Crashed
			}
		}
	}
	return state
}

// MaxWorker returns the largest worker index the plan names (0 when it
// names none) — the soak driver checks it against the pool size before
// a schedule silently targets a worker that does not exist.
func (p Plan) MaxWorker() int {
	max := 0
	for _, c := range p {
		if c.Worker > max {
			max = c.Worker
		}
	}
	return max
}

// unit hashes (seed, request index, clause index) to a uniform value in
// [0, 1) with the same splitmix64 finalizer the simulator's positional
// randomness uses. This is the whole determinism story: a clause fires
// on request i iff unit(seed, i, clause) < Prob, independent of wall
// time, scheduling, or which goroutine carries the request.
func unit(seed int64, req uint64, clause int) float64 {
	h := measure.Mix64(uint64(seed) + 0x9e3779b97f4a7c15)
	h = measure.Mix64(h ^ measure.Mix64(req+0xbf58476d1ce4e5b9))
	h = measure.Mix64(h ^ measure.Mix64(uint64(clause)+0x94d049bb133111eb))
	return float64(h>>11) / (1 << 53)
}

// Fault is one injected per-request decision, reported in traces.
type Fault struct {
	Kind  ClauseKind
	Delay time.Duration // Latency only
}

// Decide returns the per-request faults the plan injects on request i
// under seed — a pure function, shared by the injector (to act) and the
// soak driver (to audit and to size its error budget). Clause index in
// the hash is the clause's position in the plan, so two drop clauses
// draw independent coins.
func (p Plan) Decide(seed int64, i uint64) []Fault {
	var out []Fault
	for ci, c := range p {
		if !c.Kind.probabilistic() {
			continue
		}
		if unit(seed, i, ci) < c.Prob {
			out = append(out, Fault{Kind: c.Kind, Delay: c.Delay})
		}
	}
	return out
}

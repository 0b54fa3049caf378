package chaos

import (
	"reflect"
	"testing"
)

// FuzzParseChaosSpec is the chaos parser's robustness contract, the
// FuzzParseFaultSpec pattern applied to the serving-layer grammar: no
// input panics, and any spec that parses renders (Plan.String) back to
// a spec that re-parses to the identical plan — the round trip
// cmd/netemuchaos relies on when it echoes the schedule into its run
// summary.
func FuzzParseChaosSpec(f *testing.F) {
	seeds := []string{
		"latency:200ms@p0.1",
		"drop@p0.05",
		"truncate@p0.02",
		"freeze:w1@t30s",
		"crash:w2@t60s",
		"heal@t90s",
		"latency:200ms@p0.1,drop@p0.05,truncate@p0.02,freeze:w1@t30s,crash:w2@t60s,heal@t90s",
		"heal@t90s,drop@p0.5,crash:w1@t10s,latency:1ms@p0.25",
		" drop@p0.5 , heal@t8s ",
		"drop@p1",
		"latency:1h30m@p0.001",
		"heal@t0s",
		"",
		",",
		"drop",
		"drop@p0",
		"drop@p1.5",
		"drop@pNaN",
		"drop@p1e-300",
		"latency@p0.1",
		"latency:-5ms@p0.1",
		"latency:200ms@t30s",
		"freeze:w0@t5s",
		"freeze:x1@t5s",
		"crash:w99999999999999999999@t5s",
		"heal@t-1s",
		"heal@p0.5",
		"bogus:1@t1s",
		"crash:w1@t2562047h47m16.854775807s",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseChaosSpec(spec)
		if err != nil {
			return
		}
		if len(plan) == 0 {
			t.Fatalf("ParseChaosSpec(%q) returned an empty plan without error", spec)
		}
		lastAt := -1
		for i, c := range plan {
			switch c.Kind {
			case Latency, Drop, Truncate:
				if !(c.Prob > 0 && c.Prob <= 1) {
					t.Fatalf("ParseChaosSpec(%q): clause %d probability %v outside (0,1]", spec, i, c.Prob)
				}
				if c.Kind == Latency && c.Delay <= 0 {
					t.Fatalf("ParseChaosSpec(%q): clause %d non-positive latency %v", spec, i, c.Delay)
				}
				if lastAt >= 0 {
					t.Fatalf("ParseChaosSpec(%q): probabilistic clause %d after a timeline clause", spec, i)
				}
			case Freeze, Crash, Heal:
				if c.At < 0 {
					t.Fatalf("ParseChaosSpec(%q): clause %d negative trigger %v", spec, i, c.At)
				}
				if lastAt >= 0 && plan[i-1].At > c.At {
					t.Fatalf("ParseChaosSpec(%q): timeline not sorted: %v", spec, plan)
				}
				if (c.Kind == Freeze || c.Kind == Crash) && c.Worker < 1 {
					t.Fatalf("ParseChaosSpec(%q): clause %d worker %d < 1", spec, i, c.Worker)
				}
				lastAt = i
			default:
				t.Fatalf("ParseChaosSpec(%q): unknown kind %v", spec, c.Kind)
			}
		}
		again, err := ParseChaosSpec(plan.String())
		if err != nil {
			t.Fatalf("round trip of %q failed: %q does not re-parse: %v", spec, plan.String(), err)
		}
		if !reflect.DeepEqual(again, plan) {
			t.Fatalf("round trip of %q changed the plan:\nfirst:  %v\nsecond: %v", spec, plan, again)
		}
		// The decision function must be total on any parsed plan.
		for i := uint64(0); i < 4; i++ {
			plan.Decide(42, i)
			plan.WorkerStateAt(1, horizon(plan))
		}
	})
}

package topology

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseFaultSpec(t *testing.T) {
	plan, err := ParseFaultSpec("nodes:8@t500, edges:0.05@t100 ,heal@t900")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("got %d clauses", len(plan))
	}
	// Sorted by tick regardless of input order.
	if plan[0].Kind != EdgeFaults || plan[0].Tick != 100 || plan[0].Frac != 0.05 {
		t.Fatalf("clause 0 = %+v", plan[0])
	}
	if plan[1].Kind != NodeFaults || plan[1].Tick != 500 || plan[1].Count != 8 {
		t.Fatalf("clause 1 = %+v", plan[1])
	}
	if plan[2].Kind != Heal || plan[2].Tick != 900 {
		t.Fatalf("clause 2 = %+v", plan[2])
	}
	// String round-trips through the parser.
	again, err := ParseFaultSpec(plan.String())
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if again.String() != plan.String() {
		t.Fatalf("round-trip %q != %q", again.String(), plan.String())
	}
}

func TestParseFaultSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"edges:0.05",       // no tick
		"edges:0.05@100",   // missing t prefix
		"edges:1.0@t10",    // fraction out of [0,1)
		"edges:-0.1@t10",   // negative fraction
		"edges@t10",        // missing fraction
		"nodes:0@t10",      // zero count
		"nodes:x@t10",      // non-integer count
		"heal:3@t10",       // heal takes no amount
		"wires:0.1@t10",    // unknown kind
		"edges:0.1@t-5",    // negative tick
		"edges:0.1@tlater", // non-integer tick
	} {
		if _, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("spec %q parsed without error", spec)
		}
	}
}

func TestMaterializeDeterministicAndDisjoint(t *testing.T) {
	m := Mesh(2, 8)
	plan := MustParseFaultSpec("edges:0.3@t10,nodes:4@t20,heal@t30,edges:0.3@t40")
	s1 := plan.Materialize(m, rand.New(rand.NewSource(9)))
	s2 := plan.Materialize(m, rand.New(rand.NewSource(9)))
	if len(s1.Events) != 4 || len(s2.Events) != 4 {
		t.Fatalf("events %d/%d, want 4", len(s1.Events), len(s2.Events))
	}
	// Same seed, same schedule.
	if s1.TotalEdgeFaults() != s2.TotalEdgeFaults() || s1.TotalNodeFaults() != s2.TotalNodeFaults() {
		t.Fatal("same seed produced different schedules")
	}
	for i := range s1.Events {
		if len(s1.Events[i].Edges) != len(s2.Events[i].Edges) {
			t.Fatalf("event %d edge counts differ", i)
		}
		for j := range s1.Events[i].Edges {
			if s1.Events[i].Edges[j] != s2.Events[i].Edges[j] {
				t.Fatalf("event %d edge %d differs", i, j)
			}
		}
	}
	// The first edge event and the node event never overlap: a wire already
	// down (or touching a down node) is not re-failed before the heal.
	down := make(map[[2]int]bool)
	for _, e := range s1.Events[0].Edges {
		down[[2]int{e.U, e.V}] = true
	}
	if len(s1.Events[1].Nodes) != 4 {
		t.Fatalf("node event failed %d processors, want 4", len(s1.Events[1].Nodes))
	}
	if !s1.Events[2].Heal {
		t.Fatal("third event is not a heal")
	}
	// Post-heal edge faults may hit previously-failed wires again.
	if len(s1.Events[3].Edges) == 0 {
		t.Fatal("post-heal edge event failed nothing")
	}
}

func TestMaterializeNodeClausePanicsWhenNoneWouldSurvive(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "leaving none alive") {
			t.Fatalf("panic %v", r)
		}
	}()
	MustParseFaultSpec("nodes:8@t5").Materialize(Ring(8), rand.New(rand.NewSource(1)))
}

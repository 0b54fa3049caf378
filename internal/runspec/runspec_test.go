package runspec

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestCanonicalGolden locks the canonical key format: cache entries and
// flight-table keys live or die by this string staying stable across builds.
func TestCanonicalGolden(t *testing.T) {
	s := Spec{
		Kind:    KindOpenLoop,
		Machine: &MachineSpec{Family: "DeBruijn", Size: 128},
		Rate:    1.5,
		Seed:    7,
		Shards:  8, // must not appear
	}
	const want = `runspec/v1/{"kind":"open-loop","machine":{"family":"DeBruijn","size":128},"rate":1.5,"ticks":400,"seed":7}`
	if got := s.Canonical(); got != want {
		t.Fatalf("canonical key drifted:\n got %s\nwant %s", got, want)
	}
}

// TestCanonicalStripsShards pins the throughput-knob contract.
func TestCanonicalStripsShards(t *testing.T) {
	s := Spec{Kind: KindSteadyBeta, Seed: 1}
	withShards := s
	withShards.Shards = 16
	if s.Canonical() != withShards.Canonical() {
		t.Fatal("shards leaked into the canonical key")
	}
	if strings.Contains(s.Canonical(), "shards") {
		t.Fatalf("canonical key mentions shards: %s", s.Canonical())
	}
}

// TestJSONRoundTrip: a spec survives the wire unchanged — what the server
// decodes is what the client canonicalized.
func TestJSONRoundTrip(t *testing.T) {
	in := Spec{
		Kind:       KindFaultCurve,
		Machine:    &MachineSpec{Family: "Butterfly", Size: 96, Seed: 3},
		FaultFracs: []float64{0.05, 0.3},
		Ticks:      90,
		Seed:       11,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if in.Canonical() != out.Canonical() {
		t.Fatalf("round trip changed the canonical key:\n%s\n%s", in.Canonical(), out.Canonical())
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"missing kind", Spec{}, "kind"},
		{"unknown kind", Spec{Kind: "telepathy"}, "telepathy"},
		{"open-loop no rate", Spec{Kind: KindOpenLoop}, "rate"},
		{"open-loop short", Spec{Kind: KindOpenLoop, Rate: 1, Ticks: 4}, "ticks"},
		{"bad fault spec", Spec{Kind: KindOpenLoop, Rate: 1, Faults: "edges:banana@t10"}, "fault"},
		{"fault curve empty", Spec{Kind: KindFaultCurve}, "fault_fracs"},
		{"fault curve frac", Spec{Kind: KindFaultCurve, FaultFracs: []float64{2}}, "fault_fracs"},
		{"negative shards", Spec{Kind: KindSteadyBeta, Shards: -1}, "shards"},
		{"bad strategy", Spec{Kind: KindBeta, Strategy: "psychic"}, "strategy"},
		{"bad traffic", Spec{Kind: KindBeta, Traffic: "gravity"}, "traffic"},
		{"bad locality decay", Spec{Kind: KindBeta, Traffic: "locality:7"}, "locality"},
		{"zero load factor", Spec{Kind: KindBeta, LoadFactors: []int{0}}, "load_factors"},
		// "emulate with no machine specs" is Execute's error, not
		// Validate's: RunEmulation takes prebuilt machines with a spec
		// that carries none. Covered in TestExecuteErrors.
		{"emulate bad mode", Spec{Kind: KindEmulate, Mode: "osmosis",
			Guest: &MachineSpec{Family: "DeBruijn", Size: 64},
			Host:  &MachineSpec{Family: "Mesh", Dim: 2, Size: 16}}, "mode"},
		{"emulate edge faults", Spec{Kind: KindEmulate, Faults: "edges:0.1@t2", Steps: 4,
			Guest: &MachineSpec{Family: "DeBruijn", Size: 64},
			Host:  &MachineSpec{Family: "Mesh", Dim: 2, Size: 16}}, "nodes:K@tS"},
		{"emulate fault outside run", Spec{Kind: KindEmulate, Faults: "nodes:3@t9", Steps: 4,
			Guest: &MachineSpec{Family: "DeBruijn", Size: 64},
			Host:  &MachineSpec{Family: "Mesh", Dim: 2, Size: 16}}, "step"},
		{"bad family", Spec{Kind: KindBeta, Machine: &MachineSpec{Family: "NoSuchNet", Size: 64}}, "family"},
		{"missing dim", Spec{Kind: KindBeta, Machine: &MachineSpec{Family: "Mesh", Size: 64}}, "dim"},
		{"zero size", Spec{Kind: KindBeta, Machine: &MachineSpec{Family: "DeBruijn"}}, "size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatalf("spec %+v: expected error", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	good := []Spec{
		{Kind: KindBeta},
		{Kind: KindBeta, Traffic: "locality:0.5", Strategy: "valiant"},
		{Kind: KindSteadyBeta},
		{Kind: KindOpenLoop, Rate: 0.5},
		{Kind: KindOpenLoop, Rate: 2, Snapshot: true, Faults: "edges:0.05@t100,heal@t300"},
		{Kind: KindFaultCurve, FaultFracs: []float64{0, 0.5, 1}},
		{Kind: KindLambda},
		{Kind: KindEmulate,
			Guest: &MachineSpec{Family: "DeBruijn", Size: 64},
			Host:  &MachineSpec{Family: "Mesh", Dim: 2, Size: 16}},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v: unexpected error %v", s, err)
		}
	}
}

// TestExecuteEmulate smoke-tests the serializable emulation path end to
// end, including the degraded mode.
func TestExecuteEmulate(t *testing.T) {
	spec := Spec{
		Kind:  KindEmulate,
		Guest: &MachineSpec{Family: "DeBruijn", Size: 64, Seed: 1},
		Host:  &MachineSpec{Family: "Mesh", Dim: 2, Size: 16, Seed: 2},
		Steps: 3,
		Seed:  1,
	}
	res, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emulation == nil || res.Emulation.Slowdown <= 0 || res.Emulation.GuestSteps != 3 {
		t.Fatalf("emulation outcome %+v", res.Emulation)
	}
	spec.Faults = "nodes:2@t2"
	spec.Steps = 4
	deg, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Emulation.Degraded == nil || deg.Emulation.Degraded.LiveHosts < 1 {
		t.Fatalf("degraded outcome %+v", deg.Emulation.Degraded)
	}
}

// TestExecuteMatchesRun: building the machine from the spec and measuring
// equals measuring a machine built the same way — the server/CLI parity
// guarantee.
func TestExecuteMatchesRun(t *testing.T) {
	spec := Spec{
		Kind:    KindSteadyBeta,
		Machine: &MachineSpec{Family: "Butterfly", Size: 64, Seed: 5},
		Ticks:   60,
		Iters:   3,
		Seed:    9,
	}
	viaExecute, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMachine(*spec.Machine)
	if err != nil {
		t.Fatal(err)
	}
	viaRun, err := Run(m, spec)
	if err != nil {
		t.Fatal(err)
	}
	if viaExecute.Beta != viaRun.Beta {
		t.Fatalf("execute %v != run %v", viaExecute.Beta, viaRun.Beta)
	}
	a, _ := json.Marshal(viaExecute)
	b, _ := json.Marshal(viaRun)
	if string(a) != string(b) {
		t.Fatalf("execute/run JSON diverged:\n%s\n%s", a, b)
	}
}

// TestResultJSONRoundTrip: a Result decoded from the wire re-marshals to
// the same bytes — the property the server's stored responses rely on.
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := Execute(Spec{
		Kind:     KindOpenLoop,
		Machine:  &MachineSpec{Family: "DeBruijn", Size: 32},
		Rate:     1,
		Ticks:    48,
		Snapshot: true,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Result
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("result JSON does not round-trip:\n%s\n%s", first, second)
	}
}

// TestExecuteErrors covers the build-time checks that live in Execute
// rather than Validate: machine specs must be present for Execute to
// build, even though RunEmulation/Run accept prebuilt machines without
// them.
func TestExecuteErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"emulate no machines", Spec{Kind: KindEmulate, Steps: 2}, "guest and host"},
		{"emulate no host", Spec{Kind: KindEmulate, Steps: 2,
			Guest: &MachineSpec{Family: "DeBruijn", Size: 64}}, "guest and host"},
		{"measure no machine", Spec{Kind: KindLambda}, "machine spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Execute(tc.spec)
			if err == nil {
				t.Fatalf("spec %+v: expected error", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestKindEndpoints pins the kind→endpoint mapping the HTTP handlers,
// the cluster dispatcher, and netemuload all share: every measurement
// kind routes to /v1/measure, emulation to /v1/emulate.
func TestKindEndpoints(t *testing.T) {
	measurements := []Kind{KindBeta, KindSteadyBeta, KindOpenLoop, KindFaultCurve, KindLambda}
	for _, k := range measurements {
		if !k.IsMeasurement() {
			t.Errorf("kind %q should be a measurement", k)
		}
		if got := k.Endpoint(); got != "/v1/measure" {
			t.Errorf("kind %q endpoint %q, want /v1/measure", k, got)
		}
	}
	if KindEmulate.IsMeasurement() {
		t.Error("emulate must not be a measurement")
	}
	if got := KindEmulate.Endpoint(); got != "/v1/emulate" {
		t.Errorf("emulate endpoint %q, want /v1/emulate", got)
	}
}

package report

import (
	"bytes"
	"strings"
	"testing"
)

// The tentpole contract: report output is byte-identical at any worker
// count. This is what lets CI (and users) crank -workers without auditing
// the numbers.
func TestGenerateDeterministicAcrossWorkerCounts(t *testing.T) {
	gen := func(workers int) []byte {
		var buf bytes.Buffer
		if err := Generate(&buf, Options{Quick: true, Seed: 1, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := gen(1)
	eight := gen(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("report differs between workers=1 (%d bytes) and workers=8 (%d bytes)", len(one), len(eight))
	}
}

func TestGenerateContainsEverySection(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, Options{Quick: true, Seed: 1, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Reproduction report",
		"## Table 4: bandwidth β per machine",
		"## Tables 1–3: maximum host sizes",
		"## Figure 1: load vs bandwidth slowdown crossover",
		"## Emulation matrix: measured slowdown vs theorem bound",
		"## Bottleneck-freeness audit",
		"## Theorem 6: operational β vs graph-theoretic",
		"## Lemmas 9 and 11: the γ witness inside an efficient circuit",
		"## §1.2 comparison: bandwidth method vs Koch",
		"## Conclusion extension: algorithms as communication patterns",
		"## Fault tolerance: butterfly vs multibutterfly",
		"## Resilience: bandwidth degradation under dynamic faults",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("report contains NaN")
	}
	if strings.Contains(out, "| no |") || strings.Contains(out, "error:") {
		t.Error("a Lemma 9/11 check failed in the report")
	}
}

func TestGenerateSeedChangesOutput(t *testing.T) {
	gen := func(seed int64) string {
		var buf bytes.Buffer
		if err := Generate(&buf, Options{Quick: true, Seed: seed, Workers: 8}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if gen(1) == gen(2) {
		t.Fatal("different seeds produced identical reports")
	}
}

// BenchmarkReportQuick measures the quick-report wall clock; run with
// -cpu 1,4 to see the orchestrator's scaling (workers follows GOMAXPROCS).
func BenchmarkReportQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Generate(&buf, Options{Quick: true, Seed: 1, Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReportQuickSerial pins workers=1 — the baseline the parallel
// run is compared against.
func BenchmarkReportQuickSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Generate(&buf, Options{Quick: true, Seed: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

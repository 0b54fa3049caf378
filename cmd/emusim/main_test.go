package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Same contract as betameter's flag-validation test: every nonsensical
// flag combination exits 1 with exactly one stderr line, before any
// machine is built or simulation started.
func TestEmusimRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "emusim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero steps", []string{"-steps", "0"}, "-steps"},
		{"negative gsize", []string{"-gsize", "-4"}, "-gsize"},
		{"zero hsize", []string{"-hsize", "0"}, "-hsize"},
		{"negative gdim", []string{"-gdim", "-1"}, "-gdim"},
		{"zero duplicity", []string{"-duplicity", "0"}, "-duplicity"},
		{"negative shards", []string{"-shards", "-1"}, "-shards"},
		{"low stats ticks", []string{"-stats", "-", "-stats-ticks", "3"}, "-stats-ticks"},
		{"malformed faults", []string{"-faults", "nodes:many@t2"}, "fault"},
		{"edge-fault clause", []string{"-faults", "edges:0.1@t2"}, "nodes:K@tS"},
		{"fault after run ends", []string{"-faults", "nodes:3@t9", "-steps", "4"}, "-faults"},
		{"faults with circuit", []string{"-faults", "nodes:3@t2", "-circuit"}, "direct emulator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			if err == nil {
				t.Fatalf("args %v: expected nonzero exit", tc.args)
			}
			msg := strings.TrimSpace(stderr.String())
			if msg == "" || strings.Count(msg, "\n") != 0 {
				t.Fatalf("args %v: want exactly one error line, got %q", tc.args, msg)
			}
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, msg, tc.want)
			}
		})
	}
}

// The ratio line must describe the emulation the report printed, here the
// mapped one, not a separate direct run. DeBruijn-256 on Mesh-64 is
// load-bound (|G|/|H| = 4), so the printed bound is exact, and host ticks
// over guest steps gives the unrounded slowdown.
func TestEmusimRatioIsReportedSlowdownOverBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "emusim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-map", "-shards", "1").Output()
	if err != nil {
		t.Fatalf("emusim -map: %v", err)
	}
	field := func(prefix string) string {
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.Fields(rest)[0]
			}
		}
		t.Fatalf("no %q line in\n%s", prefix, out)
		return ""
	}
	num := func(prefix string) float64 {
		v, err := strconv.ParseFloat(field(prefix), 64)
		if err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
		return v
	}
	slowdown := num("host ticks:") / num("guest steps:")
	if got, want := field("measured/bound ratio:"), fmt.Sprintf("%.2f", slowdown/num("theorem bound:")); got != want {
		t.Fatalf("ratio %s, want slowdown %.2f / bound = %s\n%s", got, slowdown, want, out)
	}
}

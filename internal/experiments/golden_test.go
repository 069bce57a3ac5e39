package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick.golden from the current output")

// timingLine matches any output line carrying a wall-clock duration
// (E14's engine table); those lines — and only those — vary run to run,
// so the golden pin drops them whole (a stripped ratio would still vary).
var timingLine = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s)\b`)

// goldenFilter reduces experiment output to its deterministic content.
func goldenFilter(raw string) string {
	var sb strings.Builder
	for _, line := range strings.Split(raw, "\n") {
		if timingLine.MatchString(line) {
			continue
		}
		sb.WriteString(strings.TrimRight(line, " "))
		sb.WriteString("\n")
	}
	return strings.TrimRight(sb.String(), "\n") + "\n"
}

// TestQuickGolden pins the claim-vs-measured verdict lines of every
// experiment driver (`cliquebench -quick`): tables, found/verified
// verdicts and accounting numbers are all deterministic (seeded rngs,
// parallelism-independent engine), so any drift in this output is a
// silent behavior change in an E1–E14/EA1 driver. Timing lines are
// filtered, nothing else. Regenerate deliberately with:
//
//	go test ./internal/experiments/ -run QuickGolden -update
func TestQuickGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, e := range All {
		fmt.Fprintf(&buf, ">>> %s\n", e.ID)
		if err := e.Run(&buf, true, Env{}); err != nil {
			t.Fatalf("%s failed: %v", e.ID, err)
		}
	}
	got := goldenFilter(buf.String())

	path := filepath.Join("testdata", "quick.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("quick output drifted at line %d:\n  golden: %q\n  got:    %q\n"+
				"(intentional change? rerun with -update)", i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("quick output length drifted: %d lines vs %d golden (intentional change? rerun with -update)",
		len(gotLines), len(wantLines))
}

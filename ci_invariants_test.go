// CI-shape invariants: the workflow file is code the compiler never
// sees, so these tests pin its load-bearing properties — the race gate
// covers the whole module (no enumerated package list to rot), the
// benchmark's exact outputs are verified, the module type-checks for a
// 32-bit target, and the third-party gates stay version-pinned. The
// amrio-vet analyzer suite needs no CI job: TestAnalyzerSuiteClean runs
// it under `go test ./...`.
package amrproxyio_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func readCI(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatalf("reading CI workflow: %v", err)
	}
	return string(data)
}

// TestRaceGateCoversWholeModule: the -race invocation must be ./...;
// an enumerated package list silently loses every new package.
func TestRaceGateCoversWholeModule(t *testing.T) {
	ci := readCI(t)
	re := regexp.MustCompile(`(?m)^\s*run:\s*(go test -race .*)$`)
	matches := re.FindAllStringSubmatch(ci, -1)
	if len(matches) == 0 {
		t.Fatal("CI has no `go test -race` gate")
	}
	for _, m := range matches {
		cmd := strings.TrimSpace(m[1])
		if cmd != "go test -race ./..." {
			t.Errorf("race gate is %q; it must be exactly `go test -race ./...` so new packages cannot drift out of race coverage", cmd)
		}
	}
}

// TestThirdPartyGatesArePinned: staticcheck and govulncheck must be
// installed at explicit versions, never @latest.
func TestThirdPartyGatesArePinned(t *testing.T) {
	ci := readCI(t)
	for _, tool := range []string{
		"honnef.co/go/tools/cmd/staticcheck",
		"golang.org/x/vuln/cmd/govulncheck",
	} {
		re := regexp.MustCompile(regexp.QuoteMeta(tool) + `@(\S+)`)
		m := re.FindStringSubmatch(ci)
		if m == nil {
			t.Errorf("CI does not install %s", tool)
			continue
		}
		if m[1] == "latest" || m[1] == "master" {
			t.Errorf("%s is installed @%s; pin an explicit version", tool, m[1])
		}
	}
}

// TestFuzzSmokePresent: each fuzz target gets a short CI budget.
func TestFuzzSmokePresent(t *testing.T) {
	ci := readCI(t)
	for _, want := range []string{
		"-fuzz=FuzzParse -fuzztime=20s -run '^$' ./internal/faults/",
		"-fuzz=FuzzParse -fuzztime=20s -run '^$' ./internal/resilience/",
		"-fuzz=FuzzObserveMatchesRebuild -fuzztime=20s -run '^$' ./internal/resilience/",
		"-fuzz=FuzzParseAggregation -fuzztime=20s -run '^$' ./internal/iosim/",
		"-fuzz=FuzzDecodeBatch -fuzztime=20s -run '^$' ./internal/serve/",
		"-fuzz=FuzzParseArgs -fuzztime=20s -run '^$' ./internal/macsio/",
		"-fuzz=FuzzCastroInputs -fuzztime=20s -run '^$' ./internal/inputs/",
	} {
		if !strings.Contains(ci, want) {
			t.Errorf("CI fuzz smoke missing %q", want)
		}
	}
}

// TestBenchVerifyPresent: every benchmark workload runs in CI with its
// outputs checked against the goldens (amrio-bench exits non-zero on any
// failed op, and a golden mismatch is one). Timing comparisons against a
// committed baseline stay out: a hosted runner is not the baseline host,
// so its timings would flag noise.
func TestBenchVerifyPresent(t *testing.T) {
	ci := readCI(t)
	if !strings.Contains(ci, "\n  bench-verify:\n") {
		t.Error("CI has no bench-verify job")
	}
	if !strings.Contains(ci, "go run ./cmd/amrio-bench -seed 1 -seconds 1 -trace-dir /tmp/bench -out /tmp/bench/result.json") {
		t.Error("CI does not run amrio-bench over all workloads at seed 1")
	}
	if strings.Contains(ci, "amrio-bench -compare") {
		t.Error("CI runs the timing -compare; hosted runners are not the baseline host")
	}
}

// TestThirtyTwoBitVetPresent: the module must keep type-checking for a
// 32-bit target, where an int constant above MaxInt32 is a compile error.
func TestThirtyTwoBitVetPresent(t *testing.T) {
	if !strings.Contains(readCI(t), "run: GOARCH=386 go vet ./...") {
		t.Error("CI does not run `GOARCH=386 go vet ./...`")
	}
}

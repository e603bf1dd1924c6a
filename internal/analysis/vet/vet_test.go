package vet_test

import (
	"bytes"
	"strings"
	"testing"

	"amrproxyio/internal/analysis/vet"
)

// TestSuiteRegistersAllAnalyzers pins the suite roster: every invariant
// analyzer must be wired into the driver, with unique names.
func TestSuiteRegistersAllAnalyzers(t *testing.T) {
	want := []string{"boxarraylit", "jsonstrict", "ledgerretain", "maprangefloat", "nondeterm"}
	got := vet.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil || a.Doc == "" {
			t.Errorf("analyzer %q missing Run or Doc", a.Name)
		}
	}
}

// TestHandshakeModes covers the go vet -vettool protocol endpoints.
func TestHandshakeModes(t *testing.T) {
	var out, errw bytes.Buffer
	if code := vet.Main([]string{"-flags"}, &out, &errw); code != 0 {
		t.Fatalf("-flags exited %d: %s", code, errw.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("-flags printed %q, want []", out.String())
	}

	out.Reset()
	if code := vet.Main([]string{"-V=full"}, &out, &errw); code != 0 {
		t.Fatalf("-V=full exited %d: %s", code, errw.String())
	}
	if !strings.HasPrefix(out.String(), "amrio-vet version") {
		t.Errorf("-V=full printed %q, want amrio-vet version prefix", out.String())
	}
}

// TestStandaloneFlagsKnownBadFixture runs the driver end to end against
// the seeded-violation package and checks all seeded analyzers fire.
func TestStandaloneFlagsKnownBadFixture(t *testing.T) {
	var out, errw bytes.Buffer
	code := vet.Main([]string{"./testdata/src/bad"}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (diagnostics)\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	text := out.String()
	if !strings.Contains(text, "time.Now") {
		t.Errorf("nondeterm diagnostic missing from output:\n%s", text)
	}
	if !strings.Contains(text, "BoxArray") {
		t.Errorf("boxarraylit diagnostic missing from output:\n%s", text)
	}
	if !strings.Contains(text, "Ledger()") {
		t.Errorf("ledgerretain diagnostic missing from output:\n%s", text)
	}
}

// TestStandaloneCleanPackage: a clean package exits 0 with no output.
func TestStandaloneCleanPackage(t *testing.T) {
	var out, errw bytes.Buffer
	code := vet.Main([]string{"amrproxyio/internal/grid"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run printed diagnostics:\n%s", out.String())
	}
}

package vet_test

import (
	"bytes"
	"strings"
	"testing"

	"amrproxyio/internal/analysis"
	"amrproxyio/internal/analysis/vet"
)

// TestSuiteRegistersAllAnalyzers pins the suite roster: every invariant
// analyzer must be wired into the suite, with unique names.
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

// TestCheckFlagsKnownBadFixture runs the suite against the
// seeded-violation package and checks all seeded analyzers fire.
func TestCheckFlagsKnownBadFixture(t *testing.T) {
	diags, paths, err := vet.Check(".", "./testdata/src/bad")
	if err != nil {
		t.Fatal(err)
	}
	if want := "amrproxyio/internal/analysis/vet/testdata/src/bad"; len(paths) != 1 || paths[0] != want {
		t.Errorf("checked %q, want [%s]", paths, want)
	}
	var out bytes.Buffer
	analysis.Print(&out, diags)
	text := out.String()
	if len(diags) != 3 {
		t.Errorf("%d diagnostics, want 3:\n%s", len(diags), text)
	}
	for _, want := range []string{"time.Now", "BoxArray", "Ledger()"} {
		if !strings.Contains(text, want) {
			t.Errorf("no diagnostic names %s:\n%s", want, text)
		}
	}
}

// TestCheckCleanPackage: a clean package yields no diagnostics.
func TestCheckCleanPackage(t *testing.T) {
	diags, paths, err := vet.Check(".", "amrproxyio/internal/grid")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("checked no package")
	}
	var out bytes.Buffer
	analysis.Print(&out, diags)
	if out.Len() != 0 {
		t.Errorf("clean package has diagnostics:\n%s", out.String())
	}
}

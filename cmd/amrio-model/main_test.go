package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"amrproxyio/internal/campaign"
)

// TestRunFromSavedResult: with -result, the loop calibrates against the
// saved run and prints the translated MACSio command line (Listing 1)
// and the proxy replay's fidelity.
func TestRunFromSavedResult(t *testing.T) {
	out, err := campaign.NewExecutor(0, false).RunCase(campaign.Case4().Scaled(64), 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "case4.json")
	if err := out.Result.Save(path); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-result", path}, &stdout); err != nil {
		t.Fatal(err)
	}
	got := stdout.String()
	if strings.Contains(got, "no -result given") {
		t.Error("ran a fresh pivot despite -result")
	}
	if !regexp.MustCompile(`(?m)^Listing 1: jsrun -n \d+ macsio .* --part_size \d+ `).MatchString(got) {
		t.Errorf("no Listing 1 line in:\n%s", got)
	}
	if !regexp.MustCompile(`(?m)^proxy fidelity: MAPE \d+\.\d\d%`).MatchString(got) {
		t.Errorf("no proxy fidelity line in:\n%s", got)
	}
}

func TestRunMissingResult(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-result", filepath.Join(t.TempDir(), "missing.json")}, &stdout); err == nil {
		t.Error("missing -result file accepted")
	}
}

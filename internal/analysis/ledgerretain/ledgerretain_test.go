package ledgerretain_test

import (
	"testing"

	"amrproxyio/internal/analysis/analysistest"
	"amrproxyio/internal/analysis/ledgerretain"
)

func TestFlaggedAndAllowedCases(t *testing.T) {
	// Two violations (direct and in-expression materialization); the
	// constructor-free streaming path, the same-named method on another
	// type, the method expression, and the _test.go call stay clean.
	diags := analysistest.Run(t, ledgerretain.Analyzer, "testdata/src/flagged")
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2", len(diags))
	}
}

func TestScopeCoversStreamingPaths(t *testing.T) {
	// The scope is part of the contract: serve, the campaign executor and
	// the sweep CLI must never materialize a ledger.
	for _, pkg := range []string{
		"amrproxyio/internal/serve", "amrproxyio/internal/campaign",
		"amrproxyio/internal/report", "amrproxyio/cmd/amrio-campaign",
	} {
		found := false
		for _, p := range ledgerretain.Packages {
			if p == pkg {
				found = true
			}
		}
		if !found {
			t.Errorf("package %s missing from ledgerretain scope", pkg)
		}
	}
}

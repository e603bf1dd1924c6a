// Package vet assembles the amrio-vet analyzer suite and runs it over
// a tree. The repository's root test (TestAnalyzerSuiteClean) calls
// Check on ./..., so `go test ./...` is where the suite gates the tree.
package vet

import (
	"amrproxyio/internal/analysis"
	"amrproxyio/internal/analysis/boxarraylit"
	"amrproxyio/internal/analysis/jsonstrict"
	"amrproxyio/internal/analysis/ledgerretain"
	"amrproxyio/internal/analysis/maprangefloat"
	"amrproxyio/internal/analysis/nondeterm"
)

// Analyzers returns the full suite, in reporting order. Adding an
// analyzer here is all it takes to run it over the tree in tier-1.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		boxarraylit.Analyzer,
		jsonstrict.Analyzer,
		ledgerretain.Analyzer,
		maprangefloat.Analyzer,
		nondeterm.Analyzer,
	}
}

// Check loads patterns relative to dir, test files and test-only
// packages included, and runs the suite over every package. It returns
// the diagnostics sorted by position and the import paths it checked,
// test variants bracketed as go list names them.
func Check(dir string, patterns ...string) ([]analysis.Diagnostic, []string, error) {
	pkgs, err := analysis.Load(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	var diags []analysis.Diagnostic
	var paths []string
	for _, pkg := range pkgs {
		d, err := analysis.RunPackage(pkg, Analyzers())
		if err != nil {
			return nil, nil, err
		}
		diags = append(diags, d...)
		paths = append(paths, pkg.Path)
	}
	analysis.SortDiagnostics(diags)
	return diags, paths, nil
}

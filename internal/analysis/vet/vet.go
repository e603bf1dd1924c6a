// Package vet assembles the amrio-vet analyzer suite and implements its
// command-line driver. The logic lives here (not in cmd/amrio-vet) so
// the driver is testable in-process; the cmd wrapper only forwards
// os.Args and exits.
package vet

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"amrproxyio/internal/analysis"
	"amrproxyio/internal/analysis/boxarraylit"
	"amrproxyio/internal/analysis/jsonstrict"
	"amrproxyio/internal/analysis/ledgerretain"
	"amrproxyio/internal/analysis/maprangefloat"
	"amrproxyio/internal/analysis/nondeterm"
)

// Analyzers returns the full suite, in reporting order. Adding an
// analyzer here is all it takes to ship it through go vet and CI.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		boxarraylit.Analyzer,
		jsonstrict.Analyzer,
		ledgerretain.Analyzer,
		maprangefloat.Analyzer,
		nondeterm.Analyzer,
	}
}

// Main is the amrio-vet entry point. It speaks three protocols:
//
//   - `amrio-vet -flags` and `amrio-vet -V=full`: the go vet handshake
//     (flag inventory, then a version line hashed into build cache keys).
//   - `amrio-vet <unit>.cfg`: one vet compilation unit, as invoked per
//     package by `go vet -vettool=amrio-vet`.
//   - `amrio-vet [-tests=false] [patterns]`: standalone mode; loads the
//     patterns (default ./...) via go list and checks them directly.
//
// Exit codes: 0 clean, 1 driver error, 2 diagnostics reported.
func Main(args []string, stdout, stderr io.Writer) int {
	for _, a := range args {
		switch {
		case a == "-flags" || a == "--flags":
			// No analyzer exposes flags; an empty JSON array completes the
			// handshake.
			fmt.Fprintln(stdout, "[]")
			return 0
		case a == "-V=full" || a == "--V=full" || a == "-V" || a == "--V":
			fmt.Fprintln(stdout, versionLine())
			return 0
		case strings.HasSuffix(a, ".cfg"):
			n, err := analysis.RunUnit(a, Analyzers(), stderr)
			if err != nil {
				fmt.Fprintf(stderr, "amrio-vet: %v\n", err)
				return 1
			}
			if n > 0 {
				return 2
			}
			return 0
		}
	}
	return standalone(args, stdout, stderr)
}

func standalone(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amrio-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tests := fs.Bool("tests", true, "also check _test.go files and test-only packages")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", *tests, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "amrio-vet: %v\n", err)
		return 1
	}
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := analysis.RunPackage(pkg, Analyzers())
		if err != nil {
			fmt.Fprintf(stderr, "amrio-vet: %s: %v\n", pkg.Path, err)
			return 1
		}
		all = append(all, diags...)
	}
	analysis.SortDiagnostics(all)
	analysis.Print(stdout, all)
	if len(all) > 0 {
		fmt.Fprintf(stderr, "amrio-vet: %d finding(s)\n", len(all))
		return 2
	}
	return 0
}

// versionLine mimics the x/tools unitchecker convention: the go command
// hashes this line into its action cache, so it must change when the
// tool binary changes.
func versionLine() string {
	h := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			h = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	return fmt.Sprintf("amrio-vet version devel buildID=%s", h)
}

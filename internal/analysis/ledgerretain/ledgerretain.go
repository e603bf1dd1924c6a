// Package ledgerretain keeps product code streaming: it forbids
// FileSystem.Ledger() calls outside the package that defines the ledger
// and the benchmark harness. Design 10's memory claim — O(bursts) per
// case instead of O(writes) — holds only while every reduction folds
// records as they are produced; one convenient Ledger() call
// rematerializes millions of WriteRecords and silently reverts a command
// to batch mode. Every command, the campaign executor, serve and the
// reports attach LedgerConsumer folds before the run instead. Test files
// are out of scope: the fold == batch pins compare against Ledger() on
// purpose.
package ledgerretain

import (
	"go/ast"
	"go/types"

	"amrproxyio/internal/analysis"
)

// Exempt lists the packages that may still read the retained ledger:
// iosim, which defines it, and the benchmark harness, whose MACSio
// workload and replay read it. Every other package is in scope,
// including the analyzer's own fixture tree, so the golden tests run it
// against real compiling code.
var Exempt = []string{
	"amrproxyio/internal/iosim",
	"amrproxyio/cmd/amrio-bench",
}

var Analyzer = &analysis.Analyzer{
	Name: "ledgerretain",
	Doc: "forbids FileSystem.Ledger() outside iosim and the benchmark harness; " +
		"materializing the ledger defeats the O(bursts) streaming subsystem",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if analysis.PackageMatch(pass.PkgPath(), Exempt) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue // fold-vs-batch equivalence tests compare against Ledger() on purpose
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Name() != "Ledger" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			if !analysis.IsNamedType(sig.Recv().Type(), "amrproxyio/internal/iosim", "FileSystem") {
				return true
			}
			pass.Reportf(sel.Pos(),
				"FileSystem.Ledger() in a streaming path materializes the full ledger: attach a LedgerConsumer fold instead")
			return true
		})
	}
	return nil
}

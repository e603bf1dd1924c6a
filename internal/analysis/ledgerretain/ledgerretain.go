// Package ledgerretain keeps the streaming subsystem streaming: it
// forbids FileSystem.Ledger() calls in the consumer/report-fold paths.
// Design 10's memory claim — O(bursts) per case instead of O(writes) —
// holds only while those paths fold records as they are produced; one
// convenient Ledger() call rematerializes millions of WriteRecords and
// silently reverts the subsystem to batch mode. The sweep CLI
// (amrio-campaign) is in scope: it reads every report off the Executor's
// per-case fold. The batch paths that legitimately reduce retained
// ledgers (the single-run CLIs and examples, iosim itself, tests pinning
// fold == batch) are out of scope.
package ledgerretain

import (
	"go/ast"
	"go/types"

	"amrproxyio/internal/analysis"
)

// Packages scopes the analyzer to the streaming paths: the serve
// service, the campaign executor, the report rows, and the sweep CLI.
// The analyzer's own fixture tree is included so the golden tests run it
// against real compiling code.
var Packages = []string{
	"amrproxyio/internal/serve",
	"amrproxyio/internal/campaign",
	"amrproxyio/internal/report",
	"amrproxyio/cmd/amrio-campaign",
	"amrproxyio/internal/analysis/ledgerretain",
	"amrproxyio/internal/analysis/vet", // the driver's known-bad smoke fixture
}

var Analyzer = &analysis.Analyzer{
	Name: "ledgerretain",
	Doc: "forbids FileSystem.Ledger() in streaming consumer/report-fold paths; " +
		"materializing the ledger defeats the O(bursts) streaming subsystem",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PackageMatch(pass.PkgPath(), Packages) {
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

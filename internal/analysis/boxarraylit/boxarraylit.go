// Package boxarraylit enforces the ROADMAP's standing BoxArray
// invariant: construction goes through amr.NewBoxArray so every copy of
// the value shares the lazily-built spatial index. A bare
// amr.BoxArray{...} composite literal carries a nil holder — correct but
// quietly O(N²) on every Index() call, and invisible to benchmarks until
// box counts grow. PR 8's aggregation tests slipped
// two such literals past review; this analyzer makes the invariant
// compiler-grade, tests and benches included.
package boxarraylit

import (
	"go/ast"

	"amrproxyio/internal/analysis"
)

// TargetPkg and TargetType name the guarded composite-literal type.
// AllowedIn is the one package that may build the literal directly: the
// type's own, where the constructors live.
var (
	TargetPkg  = "amrproxyio/internal/amr"
	TargetType = "BoxArray"
	AllowedIn  = "amrproxyio/internal/amr"
)

var Analyzer = &analysis.Analyzer{
	Name: "boxarraylit",
	Doc: "flags amr.BoxArray composite literals outside internal/amr; " +
		"route construction through amr.NewBoxArray so the lazy index is shared",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.PkgPath() == AllowedIn {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := pass.TypeOf(lit)
			if t == nil || !analysis.IsNamedType(t, TargetPkg, TargetType) {
				return true
			}
			pass.Reportf(lit.Pos(),
				"%s composite literal bypasses New%s: the value carries no shared lazy index, so every Index() call rebuilds it (use New%s)",
				TargetType, TargetType, TargetType)
			return true
		})
	}
	return nil
}

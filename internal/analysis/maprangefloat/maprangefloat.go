// Package maprangefloat flags order-sensitive reductions over map
// iteration, the bug class behind PR 7's BurstStats nondeterminism: Go
// randomizes map range order and float addition is not associative, so a
// `sum += v` inside `for _, v := range m` makes equal ledgers produce
// last-ulp-different statistics and breaks the byte-identical report
// pins. The same goes for appending anything but the range key to a
// slice that outlives the loop — the slice's element order becomes
// schedule-dependent. The fix is always the same sorted-keys loop
// the characterization fold now uses, and the analyzer emits it as a suggested rewrite
// for int-keyed maps.
package maprangefloat

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"amrproxyio/internal/analysis"
)

// Packages scopes the analyzer to the ledger-reducing packages whose
// outputs are pinned byte-identical by property tests. Order-insensitive
// map ranges elsewhere (e.g. cache invalidation) stay legal.
var Packages = []string{
	"amrproxyio/internal/iosim",
	"amrproxyio/internal/faults",
	"amrproxyio/internal/resilience",
	"amrproxyio/internal/report",
}

var Analyzer = &analysis.Analyzer{
	Name: "maprangefloat",
	Doc: "flags float accumulation and order-sensitive appends inside range-over-map " +
		"loops in the determinism-pinned packages; iterate sorted keys instead",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PackageMatch(pass.PkgPath(), Packages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypeOf(rs.X); t == nil || !isMap(t) {
				return true
			}
			checkBody(pass, rs)
			return true
		})
	}
	return nil
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkBody walks one map-range body for order-sensitive reductions into
// variables that outlive the loop.
func checkBody(pass *analysis.Pass, rs *ast.RangeStmt) {
	keyObj := rangeVarObj(pass, rs.Key)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			lhs := as.Lhs[0]
			if !isFloat(pass.TypeOf(lhs)) {
				return true
			}
			// Indexed writes (acc[k] += v) touch each key once per
			// iteration and stay order-independent; plain identifiers and
			// struct fields are running reductions.
			if _, indexed := lhs.(*ast.IndexExpr); indexed {
				return true
			}
			if declaredWithin(pass, lhs, rs) {
				return true
			}
			pass.Report(analysis.Diagnostic{
				Pos: as.Pos(),
				Message: fmt.Sprintf(
					"float accumulation into %s in map iteration order; float addition is not associative, so this sum is nondeterministic — iterate sorted keys (PR-7 BurstStats bug class)",
					exprString(lhs)),
				Fix: sortedKeysFix(pass, rs),
			})
		case token.ASSIGN:
			// dst = append(dst, ...) where dst outlives the loop makes
			// dst's order schedule-dependent — unless the only thing
			// appended is the range key itself (the sorted-keys prep
			// idiom: collect, sort, then iterate).
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) {
				return true
			}
			if declaredWithin(pass, as.Lhs[0], rs) {
				return true
			}
			if appendsOnlyRangeKey(pass, call, keyObj) {
				return true
			}
			pass.Report(analysis.Diagnostic{
				Pos: as.Pos(),
				Message: fmt.Sprintf(
					"append to %s in map iteration order makes its element order nondeterministic — iterate sorted keys, or append only the range key and sort",
					exprString(as.Lhs[0])),
				Fix: sortedKeysFix(pass, rs),
			})
		}
		return true
	})
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rangeVarObj resolves a range clause variable to its object.
func rangeVarObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pass.ObjectOf(id)
}

// declaredWithin reports whether the root identifier of e is declared
// inside the range statement (a per-iteration local, so order-safe).
func declaredWithin(pass *analysis.Pass, e ast.Expr, rs *ast.RangeStmt) bool {
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			e = v.X
			continue
		case *ast.IndexExpr:
			e = v.X
			continue
		case *ast.StarExpr:
			e = v.X
			continue
		case *ast.Ident:
			obj := pass.ObjectOf(v)
			return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
		default:
			return false
		}
	}
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := pass.ObjectOf(id).(*types.Builtin)
	return builtin
}

// appendsOnlyRangeKey reports whether every appended value is exactly the
// range key identifier (the legal collect-then-sort idiom).
func appendsOnlyRangeKey(pass *analysis.Pass, call *ast.CallExpr, keyObj types.Object) bool {
	if keyObj == nil || len(call.Args) < 2 {
		return false
	}
	for _, a := range call.Args[1:] {
		id, ok := a.(*ast.Ident)
		if !ok || pass.ObjectOf(id) != keyObj {
			return false
		}
	}
	return true
}

// exprString renders a small expression for a message.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	default:
		return "accumulator"
	}
}

// sortedKeysFix builds the mechanical sorted-keys rewrite for int-keyed
// maps over a simple (identifier or selector) map expression: the range
// header is replaced by iteration over a sorted key slice with the value
// rebound in the body. Non-int keys and computed map expressions get no
// fix — the diagnostic alone.
func sortedKeysFix(pass *analysis.Pass, rs *ast.RangeStmt) *analysis.SuggestedFix {
	mt, ok := pass.TypeOf(rs.X).Underlying().(*types.Map)
	if !ok {
		return nil
	}
	kb, ok := mt.Key().Underlying().(*types.Basic)
	if !ok || kb.Kind() != types.Int {
		return nil
	}
	var mapText string
	switch rs.X.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		mapText = exprString(rs.X)
	default:
		return nil
	}
	key := "k"
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		key = id.Name
	}
	header := fmt.Sprintf(
		"for _, %[1]s := range func() []int {\n\t\tks := make([]int, 0, len(%[2]s))\n\t\tfor %[1]s := range %[2]s {\n\t\t\tks = append(ks, %[1]s)\n\t\t}\n\t\tsort.Ints(ks)\n\t\treturn ks\n\t}() {",
		key, mapText)
	if id, ok := rs.Value.(*ast.Ident); ok && id.Name != "_" {
		header += fmt.Sprintf("\n\t\t%s := %s[%s]", id.Name, mapText, key)
	}
	return &analysis.SuggestedFix{
		Message: `iterate the map's sorted keys (add "sort" to imports if missing)`,
		Edits: []analysis.TextEdit{{
			Pos:     rs.Pos(),
			End:     rs.Body.Lbrace + 1,
			NewText: header,
		}},
	}
}

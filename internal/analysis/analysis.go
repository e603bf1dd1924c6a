package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check. The API deliberately mirrors
// golang.org/x/tools/go/analysis (Name/Doc/Run over a Pass) so the suite
// can migrate to the upstream framework wholesale if the dependency ever
// becomes available; this container builds offline from the standard
// library only.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
	Name string
	// Doc is the one-paragraph contract: what the analyzer forbids and
	// which shipped bug motivated it.
	Doc string
	// Run inspects one package and reports violations through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path as the build system names it
	// (test variants keep their " [pkg.test]" suffix; PkgPath strips it).
	Path string

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	// Fix, when non-nil, is a mechanical rewrite that discharges the
	// diagnostic (maprangefloat and jsonstrict emit them).
	Fix *SuggestedFix

	// Position is resolved when reported, for sorting and rendering.
	Position token.Position
}

// SuggestedFix is a set of textual edits plus a human-readable summary.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// TextEdit replaces [Pos, End) with NewText.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// Report records a diagnostic against the pass's package.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	d.Position = p.Fset.Position(d.Pos)
	*p.diags = append(*p.diags, d)
}

// Reportf is Report with a formatted message and no suggested fix.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil when the checker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (nil if unresolved).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// PkgPath returns the package path with any build-system test-variant
// suffix ("pkg [pkg.test]") stripped, which is the form scope lists use.
func (p *Pass) PkgPath() string {
	return StripTestVariant(p.Path)
}

// StripTestVariant drops the " [pkg.test]" suffix go list and go vet
// append to in-package test variants.
func StripTestVariant(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// PackageMatch reports whether path equals, or is a subpackage of, any
// entry in scope. An empty scope matches everything.
func PackageMatch(path string, scope []string) bool {
	if len(scope) == 0 {
		return true
	}
	path = StripTestVariant(path)
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// IsNamedType reports whether t (or the type it points to) is the named
// type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && StripTestVariant(obj.Pkg().Path()) == pkgPath
}

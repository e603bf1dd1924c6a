package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader type-checks packages without golang.org/x/tools and without
// network access: `go list -export -deps -json` resolves every package in
// the dependency closure to compiler export data in the local build
// cache, and the standard library's gc importer reads those files through
// a lookup function. Each analyzed package's own sources are parsed and
// checked directly so analyzers see full ASTs with type information.

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path as go list names it (test variants bracketed)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	ImportMap  map[string]string
}

const listFields = "-json=Dir,ImportPath,Name,Export,Standard,DepOnly,ForTest,GoFiles,ImportMap"

// goList runs `go list -export -deps -test` in dir over patterns and
// decodes the JSON stream.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-test", listFields}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		q := p
		pkgs = append(pkgs, &q)
	}
	return pkgs, nil
}

// Load lists patterns (relative to dir), type-checks every non-dependency
// package in the module, and returns them ready for analysis. In-package
// test variants replace their plain package (they are a superset of its
// files) and external _test packages are loaded too, mirroring what
// `go vet` analyzes.
func Load(dir string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	byPath := map[string]*listPkg{}
	hasTestVariant := map[string]bool{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.ForTest != "" && strings.Contains(p.ImportPath, " [") {
			hasTestVariant[StripTestVariant(p.ImportPath)] = true
		}
	}
	var out []*Package
	for _, p := range pkgs {
		if p.Standard || p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		// Skip the synthesized test-main package; skip a plain package
		// when its in-package test variant (a file superset) is loaded.
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if !strings.Contains(p.ImportPath, " [") && hasTestVariant[p.ImportPath] {
			continue
		}
		lp, err := checkPackage(p, exports)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// checkPackage parses and type-checks one listed package against the
// export data of its dependency closure. The package's ImportMap
// translates source import paths to go list package IDs (identity when
// absent); exports maps those IDs to export-data files.
func checkPackage(p *listPkg, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var asts []*ast.File
	for _, f := range p.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(p.Dir, f)
		}
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		asts = append(asts, af)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if m, ok := p.ImportMap[path]; ok {
			path = m
		}
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(error) {}, // keep checking past errors; first error still returned
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(StripTestVariant(p.ImportPath), fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", p.ImportPath, err)
	}
	return &Package{Path: p.ImportPath, Fset: fset, Files: asts, Types: tpkg, Info: info}, nil
}

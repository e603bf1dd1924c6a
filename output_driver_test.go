// Structural invariant: the output sequence (shed → remap → burst →
// observe → compute-phase clocks → adaptive checkpoint) lives once, in
// internal/driver. These tests parse the engines' source so a second
// copy cannot grow back in either of them unnoticed.
package amrproxyio_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// engineFiles parses the non-test Go files of internal/sim and
// internal/surrogate.
func engineFiles(t *testing.T) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/sim", "internal/surrogate"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, p, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			files[p] = f
		}
	}
	if len(files) < 4 {
		t.Fatalf("parsed only %d engine files; the guard would check nothing", len(files))
	}
	return files
}

// TestEnginesDoNotEmitOutput: only the driver retargets, advances
// clocks, builds a mitigation engine, or writes a burst.
func TestEnginesDoNotEmitOutput(t *testing.T) {
	methods := map[string]bool{"Retarget": true, "AdvanceClock": true}
	qualified := map[string]bool{
		"resilience.ForFileSystem": true,
		"plotfile.Write":           true,
		"plotfile.WriteCheckpoint": true,
	}
	for path, f := range engineFiles(t) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if pkg, ok := sel.X.(*ast.Ident); ok && qualified[pkg.Name+"."+name] {
				t.Errorf("%s calls %s.%s; output belongs to internal/driver", path, pkg.Name, name)
			} else if methods[name] {
				t.Errorf("%s calls .%s; output belongs to internal/driver", path, name)
			}
			return true
		})
	}
}

// TestEnginesDeclareNoOutputLoop: the per-engine helpers the driver
// replaced stay gone.
func TestEnginesDeclareNoOutputLoop(t *testing.T) {
	banned := map[string]bool{
		"remapTargets": true, "advanceClocks": true, "maybePlot": true,
		"maybeAdaptiveCheckpoint": true, "plotBytesEstimate": true,
	}
	for path, f := range engineFiles(t) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && banned[fn.Name.Name] {
				t.Errorf("%s declares %s; the output sequence lives in internal/driver", path, fn.Name.Name)
			}
		}
	}
}

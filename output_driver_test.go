// Structural invariant: the output sequence (shed → remap → burst →
// observe → compute-phase clocks → adaptive checkpoint) and the
// hierarchy step (level 0, cluster → nest → place, and the dt controls)
// live once, in internal/driver and internal/inputs. These tests parse
// the engines' source so a second copy cannot grow back in either of
// them unnoticed, every package but
// the benchmark harness so an SPMD world cannot come back, and the I/O
// model's source so its single-writer design cannot grow locks back.
package amrproxyio_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// engineFiles parses the non-test Go files of internal/sim and
// internal/surrogate.
func engineFiles(t *testing.T) map[string]*ast.File {
	t.Helper()
	return parseDirs(t, 4, "internal/sim", "internal/surrogate")
}

// parseDirs parses the non-test Go files of dirs, failing unless it finds
// at least min of them (a guard that parsed nothing would check nothing).
func parseDirs(t *testing.T, min int, dirs ...string) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
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
	if len(files) < min {
		t.Fatalf("parsed only %d files in %v; the guard would check nothing", len(files), dirs)
	}
	return files
}

// packageDirs lists the repository's directories other than except,
// skipping testdata and hidden directories.
func packageDirs(t *testing.T, except ...string) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		switch {
		case d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !slices.Contains(except, path):
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestBurstWritersRunNoSPMDWorld: the plotfile, checkpoint and MACSio
// writers price a burst rank by rank on the caller's goroutine, and the
// model prices no communication, so only the benchmark harness, which
// times a world from outside, may import the SPMD runtime.
func TestBurstWritersRunNoSPMDWorld(t *testing.T) {
	for path, f := range parseDirs(t, 80, packageDirs(t, "cmd/amrio-bench", "internal/mpisim")...) {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"amrproxyio/internal/mpisim"` {
				t.Errorf("%s imports internal/mpisim; only cmd/amrio-bench may start an SPMD world", path)
			}
		}
	}
}

// TestOnlyIOSimReadsTheBackend: whether a write is encoded is decided
// once, in iosim.FileSystem.Write, so no writer asks which backend it
// has. No non-test file outside internal/iosim reads .Backend or names
// iosim.ModelOnly or iosim.RealDisk, except that a command under cmd/
// may set the field (fsCfg.Backend = iosim.RealDisk).
func TestOnlyIOSimReadsTheBackend(t *testing.T) {
	for path, f := range parseDirs(t, 80, packageDirs(t, "internal/iosim")...) {
		command := strings.HasPrefix(filepath.ToSlash(path), "cmd/")
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && command && len(as.Lhs) == 1 {
				if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok && sel.Sel.Name == "Backend" {
					return false // setting the field
				}
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "iosim" && (name == "ModelOnly" || name == "RealDisk") {
				t.Errorf("%s names iosim.%s; only iosim.FileSystem.Write decides what a backend encodes", path, name)
			} else if name == "Backend" {
				t.Errorf("%s reads .Backend; only iosim.FileSystem.Write decides what a backend encodes", path)
			}
			return true
		})
	}
}

// TestIOModelTakesNoLocks: an iosim.FileSystem has a single writer, and
// the fault injector and resilience engine are driven by that writer, so
// none of the three packages needs sync or sync/atomic.
func TestIOModelTakesNoLocks(t *testing.T) {
	for path, f := range parseDirs(t, 15, "internal/iosim", "internal/faults", "internal/resilience") {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync"` || imp.Path.Value == `"sync/atomic"` {
				t.Errorf("%s imports %s; a FileSystem has one writer and takes no locks", path, imp.Path.Value)
			}
		}
	}
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

// TestEnginesShareOneHierarchyStep: the engines tag, advance and fill;
// laying out a level (driver.Level0, driver.FineLevel) and Castro's
// init_shrink / change_max step controls (inputs.CastroInputs.ClampDt)
// are shared, so neither engine calls the layout pipeline's stages or
// reads those controls itself.
func TestEnginesShareOneHierarchyStep(t *testing.T) {
	layout := map[string]bool{
		"amr.SingleBoxArray": true, "amr.MakeFineBoxArray": true, "amr.EnforceNesting": true,
		"amr.Distribute": true, "amr.MustDistribute": true,
	}
	controls := map[string]bool{"InitShrink": true, "ChangeMax": true}
	for path, f := range engineFiles(t) {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if pkg, ok := sel.X.(*ast.Ident); ok && layout[pkg.Name+"."+name] {
				t.Errorf("%s uses amr.%s; levels are laid out by driver.Level0 and driver.FineLevel", path, name)
			} else if controls[name] {
				t.Errorf("%s reads .%s; the dt controls are applied by inputs.CastroInputs.ClampDt", path, name)
			}
			return true
		})
	}
}

package amrproxyio_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"amrproxyio/internal/analysis"
	"amrproxyio/internal/analysis/vet"
)

// TestAnalyzerSuiteClean is the gate for the amrio-vet analyzer suite
// (internal/analysis): every package of the module, its _test.go files
// and external test packages included, must pass every analyzer. A
// finding fails the test with its position, message and suggested fix.
// The test also fails when a directory holding non-test Go source is
// missing from what the loader checked, so a package the loader drops
// cannot pass by never being looked at.
func TestAnalyzerSuiteClean(t *testing.T) {
	diags, paths, err := vet.Check(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) > 0 {
		var out bytes.Buffer
		analysis.Print(&out, diags)
		t.Errorf("%d analyzer finding(s):\n%s", len(diags), out.String())
	}
	checked := map[string]bool{}
	for _, p := range paths {
		checked[analysis.StripTestVariant(p)] = true
	}
	for _, pkg := range sourcePackages(t) {
		if !checked[pkg] {
			t.Errorf("%s holds Go source but the analyzer suite did not check it", pkg)
		}
	}
}

// sourcePackages lists the import path of every module directory that
// holds a non-test .go file, testdata and hidden directories excluded.
func sourcePackages(t *testing.T) []string {
	t.Helper()
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(mod), "\n")
	module := strings.TrimSpace(strings.TrimPrefix(first, "module"))
	seen := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.ToSlash(filepath.Join(module, filepath.Dir(path)))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]string, 0, len(seen))
	for p := range seen {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	return pkgs
}

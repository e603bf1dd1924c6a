// Package analysistest runs one analyzer over a golden fixture package
// and matches its diagnostics against `// want "regexp"` comments, the
// same contract as golang.org/x/tools/go/analysis/analysistest. Fixture
// packages live under the analyzer's testdata/src/ directory; they are
// real, compiling packages of this module (go's wildcard patterns skip
// testdata directories, so the CI gate never scans them), which lets
// fixtures import the repo's own types — boxarraylit's fixtures build
// genuine amr.BoxArray literals rather than look-alikes.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"amrproxyio/internal/analysis"
)

// Run loads the fixture package at dir (a path relative to the test's
// working directory, e.g. "testdata/src/flagged"), applies the analyzer,
// and asserts the diagnostics exactly match the fixture's want comments.
// The diagnostics are returned for extra assertions (suggested fixes).
func Run(t *testing.T, a *analysis.Analyzer, dir string) []analysis.Diagnostic {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Tests are included so fixtures can pin test-file exemptions
	// (nondeterm skips _test.go; jsonstrict's contract is non-test code).
	pkgs, err := analysis.Load(filepath.Dir(abs), []string{"./" + filepath.Base(abs)})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]
	diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg)
	matchDiagnostics(t, diags, wants)
	return diags
}

// want is one expectation: a diagnostic whose message matches rx on the
// given file:line.
type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// collectWants parses `// want "rx" "rx2"` comments (double- or
// back-quoted) from every fixture file.
func collectWants(t *testing.T, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, raw := range splitQuoted(t, pos, text) {
					rx, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, raw, err)
					}
					wants = append(wants, &want{
						file: pos.Filename, line: pos.Line, rx: rx, raw: raw,
					})
				}
			}
		}
	}
	return wants
}

// splitQuoted splits a want payload into its quoted patterns.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			t.Fatalf("%s: want patterns must be quoted, got %q", pos, s)
		}
		end := strings.IndexByte(s[1:], s[0])
		if end < 0 {
			t.Fatalf("%s: unterminated want pattern %q", pos, s)
		}
		quoted := s[:end+2]
		unq, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: bad want pattern %s: %v", pos, quoted, err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

// matchDiagnostics pairs every diagnostic with a want on its line and
// fails on unmatched entries in either direction.
func matchDiagnostics(t *testing.T, diags []analysis.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Position.Filename || w.line != d.Position.Line {
				continue
			}
			if w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s (%s)",
				fmtPos(d.Position.Filename, d.Position.Line), d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic at %s matched %q", fmtPos(w.file, w.line), w.raw)
		}
	}
}

func fmtPos(file string, line int) string {
	return fmt.Sprintf("%s:%d", filepath.Base(file), line)
}

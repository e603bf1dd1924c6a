package amrproxyio_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// fencedBlock is a ``` fenced code block: shell sessions and
	// samples, not references.
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	// fileRef is a .go or .md file named by path or by bare file name.
	fileRef = regexp.MustCompile(`(?:^|[^\w./*-])((?:[\w.-]+/)*[A-Za-z0-9][\w.-]*\.(?:go|md))\b`)
	// identRef is pkg.Ident or pkg.Type.Member with exported names.
	identRef = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
)

// TestDocReferencesResolve keeps the prose docs honest about the tree:
// every .go or .md file and every internal pkg.Ident (or pkg.Type.Member)
// named in README.md, ARCHITECTURE.md, CONTRIBUTING.md and the package
// doc.go comments must exist. In the Markdown files only code spans and
// not fenced blocks are references; in a doc.go the whole package
// comment is. A pkg that is not the name of an internal package is not
// checked. The bench/ tree documents a frozen harness and is not scanned.
func TestDocReferencesResolve(t *testing.T) {
	docs := []string{"README.md", "ARCHITECTURE.md", "CONTRIBUTING.md"}
	baseNames := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		baseNames[d.Name()] = true
		if d.Name() == "doc.go" {
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	decls := internalDecls(t)
	for _, doc := range docs {
		for _, e := range unresolvedRefs(doc, docText(t, doc), baseNames, decls) {
			t.Error(e)
		}
	}
}

// TestDocReferencesFlagDeleted feeds the checker a doc that names a
// deleted example program, a deleted exported name and a deleted method
// beside a file, a name, a method and a field that exist, and expects
// exactly the three deleted ones.
func TestDocReferencesFlagDeleted(t *testing.T) {
	text := strings.Join([]string{
		"examples/scalingstudy/main.go", "report.FigDistSkew", "amr.BoxArray.MinimalBox",
		"doc.go", "report.DistReport", "amr.BoxArray.Len", "amr.BoxArray.Boxes", "fmt.Sprintf",
	}, "\n")
	got := unresolvedRefs("README.md", text, map[string]bool{"doc.go": true}, internalDecls(t))
	if len(got) != 3 {
		t.Fatalf("flagged %d references, want 3:\n%s", len(got), strings.Join(got, "\n"))
	}
	for i, want := range []string{"examples/scalingstudy/main.go", "report.FigDistSkew", "amr.BoxArray.MinimalBox"} {
		if !strings.Contains(got[i], "`"+want+"`") {
			t.Errorf("finding %d = %q, want one naming %s", i, got[i], want)
		}
	}
}

// TestArchitectureNamesEveryInternalPackage: ARCHITECTURE.md is the map
// of the codebase, so each directory under internal/ must be named in
// it as a whole word ("sim" does not pass via "simulated").
func TestArchitectureNamesEveryInternalPackage(t *testing.T) {
	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !regexp.MustCompile(`\b`+regexp.QuoteMeta(d.Name())+`\b`).Match(doc) {
			t.Errorf("ARCHITECTURE.md does not mention internal/%s", d.Name())
		}
	}
}

// unresolvedRefs lists the file and internal pkg.Ident references in
// doc's text that the tree does not declare, files first.
func unresolvedRefs(doc, text string, baseNames map[string]bool, decls map[string]map[string]bool) []string {
	var errs []string
	for _, m := range fileRef.FindAllStringSubmatch(text, -1) {
		ref := m[1]
		if !fileExists(ref) && !fileExists(filepath.Join(filepath.Dir(doc), ref)) &&
			(strings.Contains(ref, "/") || !baseNames[ref]) {
			errs = append(errs, fmt.Sprintf("%s: `%s` names a file that does not exist", doc, ref))
		}
	}
	for _, m := range identRef.FindAllStringSubmatch(text, -1) {
		names, ok := decls[m[1]]
		if !ok {
			continue
		}
		ref := m[1] + "." + m[2]
		if !names[m[2]] {
			errs = append(errs, fmt.Sprintf("%s: `%s` is not declared in package %s", doc, ref, m[1]))
		} else if m[3] != "" && names[m[2]+"."] && !names[m[2]+"."+m[3]] {
			errs = append(errs, fmt.Sprintf("%s: `%s.%s` is neither a method nor a field of %s", doc, ref, m[3], ref))
		}
	}
	return errs
}

// docText returns the reference-bearing text of one doc: the package
// comment of a doc.go, the code spans of a Markdown file.
func docText(t *testing.T, path string) string {
	t.Helper()
	if strings.HasSuffix(path, ".go") {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		return f.Doc.Text()
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, m := range codeSpan.FindAllStringSubmatch(fencedBlock.ReplaceAllString(string(b), ""), -1) {
		spans = append(spans, m[1])
	}
	return strings.Join(spans, "\n")
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// internalDecls maps each internal package name to the top-level names
// its files declare, tests included. A struct or named type T also
// records "T." and, for each of its methods and fields M, "T.M".
func internalDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		names := decls[pkg]
		if names == nil {
			names = map[string]bool{}
			decls[pkg] = names
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				} else if recv := recvName(d.Recv.List[0].Type); recv != "" {
					names[recv+"."] = true
					names[recv+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						names[s.Name.Name+"."] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									names[s.Name.Name+"."+n.Name] = true
								}
								if len(fld.Names) == 0 {
									names[s.Name.Name+"."+recvName(fld.Type)] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// recvName is the type name of a receiver or embedded field: T, *T,
// T[P] or pkg.T.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

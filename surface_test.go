package sfd_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt from the package's exported declarations")

// TestPublicAPI pins the root package's exported names and signatures in
// testdata/api.txt, so a change to the public surface shows up as a diff
// of that file. Regenerate it after a deliberate change with
//
//	go test -run TestPublicAPI -update-api .
func TestPublicAPI(t *testing.T) {
	got := publicAPI(t)
	path := filepath.Join("testdata", "api.txt")
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-api to create it)", err)
	}
	if got == string(want) {
		return
	}
	wl, gl := lineSet(string(want)), lineSet(got)
	for _, l := range strings.Split(string(want), "\n") {
		if l != "" && !gl[l] {
			t.Errorf("removed: %s", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if l != "" && !wl[l] {
			t.Errorf("added:   %s", l)
		}
	}
	t.Errorf("public API drifted from %s; if intended, rerun with -update-api", path)
}

// publicAPI renders every exported top-level declaration of the package's
// non-test files, without docs or bodies, one per line, sorted.
func publicAPI(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	render := func(prefix string, node any) {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, prefix+strings.Join(strings.Fields(b.String()), " "))
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && (d.Recv == nil || exportedRecv(d.Recv)) {
						d.Body = nil
						render("", d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								render("type ", s)
							}
						case *ast.ValueSpec:
							if anyExported(s.Names) {
								render(d.Tok.String()+" ", s)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func exportedRecv(fl *ast.FieldList) bool {
	typ := fl.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}

func anyExported(names []*ast.Ident) bool {
	for _, n := range names {
		if n.IsExported() {
			return true
		}
	}
	return false
}

func lineSet(s string) map[string]bool {
	m := map[string]bool{}
	for _, l := range strings.Split(s, "\n") {
		m[l] = true
	}
	return m
}

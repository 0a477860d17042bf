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

// facadeReturnedConsts are exported names with no sfd.<Name> user that
// stay because a kept method hands them to callers, who compare against
// them. Each entry says which method.
var facadeReturnedConsts = map[string]string{
	"StateTuning":        "SFD.State reports it",
	"StateStable":        "SFD.State reports it",
	"StateInfeasible":    "SFD.State reports it",
	"EventCannotSatisfy": "Event.Type carries it on the registry bus",
	"GossipTrusted":      "Gossiper.VerdictOf reports it",
	"GossipSuspect":      "Gossiper.VerdictOf reports it",
	"GossipOffline":      "Gossiper.VerdictOf reports it",
}

// TestFacadeNamesHaveUsers keeps the facade from regrowing: every name
// in testdata/api.txt must be used as sfd.<Name> by an example, a
// command, api_test.go or bench_test.go; or appear in the signature of a
// used func; or be a returned constant listed in facadeReturnedConsts.
func TestFacadeNamesHaveUsers(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// api.txt lines are Go declarations without bodies, so the file
	// parses as a package once it has a clause.
	api, err := parser.ParseFile(token.NewFileSet(), "api.txt", "package api\n"+string(src), 0)
	if err != nil {
		t.Fatal(err)
	}
	used := facadeUsers(t)
	var names []string
	inSignature := map[string]bool{}
	for _, d := range api.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name.Name)
			if used[d.Name.Name] {
				for name := range bareIdents(d.Type) {
					inSignature[name] = true
				}
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	listed := map[string]bool{}
	for _, name := range names {
		listed[name] = true
		if used[name] || inSignature[name] || facadeReturnedConsts[name] != "" {
			continue
		}
		t.Errorf("%s: no sfd.%s user in examples/, cmd/, api_test.go or bench_test.go, and no used func's signature needs it", name, name)
	}
	for name := range facadeReturnedConsts {
		if !listed[name] {
			t.Errorf("facadeReturnedConsts lists %s, which testdata/api.txt does not export", name)
		}
	}
}

// facadeUsers returns every name selected as <import>.<Name> from the
// root package in the examples, the commands, api_test.go and
// bench_test.go.
func facadeUsers(t *testing.T) map[string]bool {
	t.Helper()
	files := []string{"api_test.go", "bench_test.go"}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro"` {
				local = "sfd"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return used
}

// bareIdents collects the unqualified identifiers in n: the root
// package's own names, as opposed to the Sel of pkg.Name.
func bareIdents(n ast.Node) map[string]bool {
	ids := map[string]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			return false
		case *ast.Ident:
			ids[n.Name] = true
		}
		return true
	})
	return ids
}

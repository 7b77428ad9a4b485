// exports_test.go keeps the exported API to what the code reads. Every
// package-level exported func, type, var and const declared in a non-test
// .go file of this module or of benchmark/ must be read by a non-test file:
// by any other use of its name in its own package, or as pkg.Name in a file
// that imports its package. A declaration only tests read is deleted, moved
// into a test file, or listed in exportAllowlist with the reason it stays.
// Methods are out of scope: telling whether one satisfies an interface needs
// type information, and this check uses go/parser and go/ast alone. The check
// errs towards "read": a name that also appears as a field or local in its
// own package counts as read, so it can miss dead code but never flags live
// code.
package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// exportAllowlist lists the exports, as package.Name, that no non-test file
// reads but that stay, each with the reason.
var exportAllowlist = map[string]string{
	"topology.Ring":               "fixture for the core, simulation and topology tests",
	"digesttest.Update":           "shared test infrastructure: the -update-digests flag every digest test reads",
	"experiments.BuildFleetEager": "the eager reference of the fleet-construction tests; waits on the nn.Lazy verdict",
}

// export is one package-level exported declaration.
type export struct {
	key string // package.Name, as in exportAllowlist
	pos string // file:line:column of the declaration
}

// goFile is one parsed non-test source file.
type goFile struct {
	dir  string
	file *ast.File
}

// parseGoFiles parses every non-test .go file in fsys, skipping hidden and
// testdata directories.
func parseGoFiles(fsys fs.FS) (*token.FileSet, []goFile, error) {
	fset := token.NewFileSet()
	var files []goFile
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{dir: path.Dir(p), file: f})
		return nil
	})
	return fset, files, err
}

// unreadExports parses every non-test .go file in fsys, the root of module
// (nested modules such as benchmark/ extend its import path), and returns the
// exported package-level declarations that no other non-test file reads,
// sorted by key.
func unreadExports(fsys fs.FS, module string) ([]export, error) {
	fset, files, err := parseGoFiles(fsys)
	if err != nil {
		return nil, err
	}

	importPath := func(dir string) string {
		if dir == "." {
			return module
		}
		return module + "/" + dir
	}
	pkgName := map[string]string{} // import path -> package name
	for _, f := range files {
		pkgName[importPath(f.dir)] = f.file.Name.Name
	}

	// Declarations, keyed by import path and name. A declaring identifier
	// (two, when build-tagged files declare one name twice) is no reader.
	type declKey struct{ pkg, name string }
	decls := map[declKey]*ast.Ident{}
	declaring := map[*ast.Ident]bool{}
	for _, f := range files {
		pkg := importPath(f.dir)
		for _, id := range exportedDecls(f.file) {
			decls[declKey{pkg, id.Name}] = id
			declaring[id] = true
		}
	}

	read := map[declKey]bool{}
	for _, f := range files {
		self := importPath(f.dir)
		// Local names of the imported packages of this module. Names of the
		// file's own package and of dot imports are read unqualified.
		local := map[string]string{}
		unqualified := []string{self}
		for _, imp := range f.file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name, ok := pkgName[p]
			if !ok {
				continue
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "." {
				unqualified = append(unqualified, p)
			} else {
				local[name] = p
			}
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := local[x.Name]; ok {
						read[declKey{p, n.Sel.Name}] = true
					}
				}
			case *ast.Ident:
				if declaring[n] {
					break
				}
				for _, p := range unqualified {
					read[declKey{p, n.Name}] = true
				}
			}
			return true
		})
	}

	var unread []export
	for k, id := range decls {
		if !read[k] {
			unread = append(unread, export{
				key: pkgName[k.pkg] + "." + k.name,
				pos: fset.Position(id.Pos()).String(),
			})
		}
	}
	sort.Slice(unread, func(i, j int) bool { return unread[i].key < unread[j].key })
	return unread, nil
}

// exportedDecls returns the identifiers of f's exported package-level funcs,
// types, vars and consts.
func exportedDecls(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				ids = append(ids, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						ids = append(ids, s.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							ids = append(ids, n)
						}
					}
				}
			}
		}
	}
	return ids
}

// checkExports returns one message per unread export missing from allow and
// one per allow row that is stale: its name is read, or no longer declared.
func checkExports(unread []export, allow map[string]string) []string {
	var msgs []string
	seen := map[string]bool{}
	for _, e := range unread {
		seen[e.key] = true
		if allow[e.key] == "" {
			msgs = append(msgs, fmt.Sprintf("%s: %s is exported but no non-test file reads it; "+
				"delete it, move it into a test file, or give it an exportAllowlist row with the reason", e.pos, e.key))
		}
	}
	var stale []string
	for key := range allow {
		if !seen[key] {
			stale = append(stale, fmt.Sprintf("exportAllowlist row %s is stale: it is read, or no longer declared", key))
		}
	}
	sort.Strings(stale)
	return append(msgs, stale...)
}

// TestExportsRead fails on any exported declaration nothing but a test reads
// and on any exportAllowlist row that no longer names one.
func TestExportsRead(t *testing.T) {
	unread, err := unreadExports(os.DirFS("."), "repro")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range checkExports(unread, exportAllowlist) {
		t.Error(msg)
	}
}

// TestExportsCheckerFixture runs the checker on a small module: it must flag
// exactly the export only a test reads, and report the stale allowlist rows.
func TestExportsCheckerFixture(t *testing.T) {
	fsys := fstest.MapFS{
		"lib/lib.go": {Data: []byte(`package lib

type T struct{ F int }

func (T) Method() {}

func Used() {}

func Unread() {}

func Allowed() {}

const (
	SameDir = 1
	twice   = 2 * SameDir
)

var Dotted, Renamed = 1, 2
`)},
		"lib/lib_test.go": {Data: []byte("package lib\n\nvar _ = Unread\n")},
		// A field named Unread read through a value is not lib.Unread.
		"app/main.go": {Data: []byte(`package main

import l "example/lib"

type local struct{ Unread int }

func main() {
	l.Used()
	var t l.T
	t.Method()
	_ = local{}.Unread
	_ = l.Renamed
}
`)},
		"app/dot.go": {Data: []byte(`package main

import . "example/lib"

var _ = Dotted
`)},
	}
	unread, err := unreadExports(fsys, "example")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range unread {
		keys = append(keys, e.key)
	}
	if got, want := strings.Join(keys, " "), "lib.Allowed lib.Unread"; got != want {
		t.Fatalf("unread = %q, want %q", got, want)
	}
	msgs := checkExports(unread, map[string]string{
		"lib.Allowed": "kept on purpose",
		"lib.Used":    "read by app",
		"lib.Gone":    "no longer declared",
	})
	if len(msgs) != 3 ||
		!strings.Contains(msgs[0], "lib/lib.go:9:6: lib.Unread is exported but no non-test file reads it") ||
		!strings.Contains(msgs[1], "row lib.Gone is stale") ||
		!strings.Contains(msgs[2], "row lib.Used is stale") {
		t.Fatalf("messages = %q", msgs)
	}
}

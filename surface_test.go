// surface_test.go keeps docs/SURFACE.md in step with the config structs it
// tables. The doc has one section per struct, headed "## `package.Type`",
// whose table rows start with the field name in backticks. A field with no
// row fails, so a new knob cannot land without saying who sets it and what
// breaks if it is fixed at its default; so does a row whose field no longer
// exists. The structs are found with parseGoFiles, the walk exports_test.go
// uses.
package repro

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// surfaceDoc is the surface table, relative to the module root.
const surfaceDoc = "docs/SURFACE.md"

// surfaceStructs are the structs surfaceDoc must table, as package.Type.
var surfaceStructs = []string{
	"simulation.Config",
	"simulation.AsyncConfig",
	"simulation.Heterogeneity",
	"core.JWINSConfig",
	"experiments.RunSpec",
	"experiments.Opts",
}

// structField is one field of a tabled struct and where it is declared.
type structField struct {
	name, pos string
}

// structFields returns the fields, in declaration order, of every struct
// type in files whose package.Type key is in keys. An embedded field is named
// by its type.
func structFields(fset *token.FileSet, files []goFile, keys []string) map[string][]structField {
	want := map[string]bool{}
	for _, k := range keys {
		want[k] = true
	}
	out := map[string][]structField{}
	for _, f := range files {
		ast.Inspect(f.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			key := f.file.Name.Name + "." + ts.Name.Name
			if !ok || !want[key] {
				return false
			}
			fields := []structField{}
			for _, fl := range st.Fields.List {
				names := fl.Names
				if len(names) == 0 {
					names = []*ast.Ident{embeddedName(fl.Type)}
				}
				for _, id := range names {
					fields = append(fields, structField{id.Name, fset.Position(id.Pos()).String()})
				}
			}
			out[key] = fields
			return false
		})
	}
	return out
}

// embeddedName is the field name of an embedded type: T, *T, pkg.T.
func embeddedName(e ast.Expr) *ast.Ident {
	switch t := e.(type) {
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	}
	return e.(*ast.Ident)
}

// surfaceRows returns, per "## `package.Type`" section of md, the field
// names of its table rows: rows whose first cell is a name in backticks.
func surfaceRows(md string) map[string][]string {
	rows := map[string][]string{}
	section := ""
	for _, line := range strings.Split(md, "\n") {
		line = strings.TrimSpace(line)
		if h, ok := strings.CutPrefix(line, "## "); ok {
			section = ""
			if name, ok := backticked(h); ok {
				section = name
				rows[section] = []string{}
			}
			continue
		}
		if section == "" || !strings.HasPrefix(line, "|") {
			continue
		}
		cell, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		if name, ok := backticked(strings.TrimSpace(cell)); ok {
			rows[section] = append(rows[section], name)
		}
	}
	return rows
}

// backticked returns s without its enclosing backticks, if it has them.
func backticked(s string) (string, bool) {
	if len(s) < 3 || s[0] != '`' || s[len(s)-1] != '`' {
		return "", false
	}
	return s[1 : len(s)-1], true
}

// checkSurface returns one message per listed struct that is not declared or
// has no table, per field without a row, and per row that names no field.
func checkSurface(keys []string, fields map[string][]structField, rows map[string][]string) []string {
	var msgs []string
	for _, key := range keys {
		fs, declared := fields[key]
		rs, tabled := rows[key]
		switch {
		case !declared:
			msgs = append(msgs, fmt.Sprintf("%s: %s is not declared; drop its table and its surfaceStructs entry", surfaceDoc, key))
			continue
		case !tabled:
			msgs = append(msgs, fmt.Sprintf("%s has no \"## `%s`\" table", surfaceDoc, key))
			continue
		}
		row, field := map[string]bool{}, map[string]bool{}
		for _, r := range rs {
			row[r] = true
		}
		for _, f := range fs {
			field[f.name] = true
			if !row[f.name] {
				msgs = append(msgs, fmt.Sprintf("%s: %s.%s has no row in %s; add one (who sets it, what breaks if it is fixed at its default) or make it a constant",
					f.pos, key, f.name, surfaceDoc))
			}
		}
		var stale []string
		for _, r := range rs {
			if !field[r] {
				stale = append(stale, fmt.Sprintf("%s: row %s.%s names no field; delete the row", surfaceDoc, key, r))
			}
		}
		sort.Strings(stale)
		msgs = append(msgs, stale...)
	}
	return msgs
}

// TestSurfaceTable fails on a config field docs/SURFACE.md has no row for
// and on a row whose field is gone.
func TestSurfaceTable(t *testing.T) {
	fset, files, err := parseGoFiles(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(surfaceDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range checkSurface(surfaceStructs, structFields(fset, files, surfaceStructs), surfaceRows(string(md))) {
		t.Error(msg)
	}
}

// TestSurfaceCheckerFixture runs the checker on a small module and table: it
// must flag exactly the field with no row and the row with no field.
func TestSurfaceCheckerFixture(t *testing.T) {
	fsys := fstest.MapFS{
		"lib/lib.go": {Data: []byte(`package lib

type Base struct{ Seed int }

type Config struct {
	Base
	Rounds, Every int
	added     bool
}

type Other struct{ Untabled int }
`)},
	}
	md := "# Surface\n\n" +
		"## `lib.Base`\n\n| Field | Setters | If fixed |\n|---|---|---|\n| `Seed` | cmd | runs repeat |\n\n" +
		"## `lib.Config`\n\n| Field | Setters | If fixed |\n|---|---|---|\n" +
		"| `Base` | embedded | see lib.Base |\n| `Rounds` | cmd | one length |\n| `Every` | cmd | fixed cadence |\n" +
		"| `Deleted` | nothing | nothing |\n\nProse with `Rounds` is not a row.\n\n" +
		"## Notes\n\n| `NotAField` | outside any struct section |\n"
	keys := []string{"lib.Base", "lib.Config"}
	fset, files, err := parseGoFiles(fsys)
	if err != nil {
		t.Fatal(err)
	}
	msgs := checkSurface(keys, structFields(fset, files, keys), surfaceRows(md))
	if len(msgs) != 2 ||
		!strings.Contains(msgs[0], "lib/lib.go:8:2: lib.Config.added has no row") ||
		!strings.Contains(msgs[1], "row lib.Config.Deleted names no field") {
		t.Fatalf("messages = %q", msgs)
	}
	// A listed struct that is gone, or has no table, is reported too.
	msgs = checkSurface([]string{"lib.Other", "lib.Gone"}, structFields(fset, files, []string{"lib.Other", "lib.Gone"}), surfaceRows(md))
	if len(msgs) != 2 || !strings.Contains(msgs[0], "no \"## `lib.Other`\" table") || !strings.Contains(msgs[1], "lib.Gone is not declared") {
		t.Fatalf("messages = %q", msgs)
	}
}

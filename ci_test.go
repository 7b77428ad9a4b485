// ci_test.go keeps the test selections of .github/workflows/ci.yml in step
// with the code: every -run, -bench and -fuzz pattern a `go test` line gives
// a package path must select something there. go test does not fail on a
// pattern that matches nothing, so without this check a step whose test was
// deleted or renamed would go on passing while running less.
package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatterns: each top-level | alternative of every pattern in ci.yml
// matches a function of the flag's kind declared in a _test.go file of the
// line's package (-run: Test or Fuzz, -bench: Benchmark, -fuzz: Fuzz). The
// pattern ^$ selects nothing on purpose and is skipped, and so are lines
// whose only package path is a ./... wildcard.
func TestCIRunPatterns(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	misses, checked := ciPatternMisses(string(ci), testFuncs(t))
	for _, m := range misses {
		t.Error(m)
	}
	if checked == 0 {
		t.Fatal("ci.yml: no -run, -bench or -fuzz pattern found")
	}
	t.Logf("%d alternatives checked", checked)

	// The check has teeth: a name no package declares is reported.
	stale := "run: go test ./internal/core/ -run 'TestPartialAverageMatchesReference|TestNoSuchTest' -v\n"
	if misses, _ := ciPatternMisses(stale, testFuncs(t)); len(misses) != 1 || !strings.Contains(misses[0], "TestNoSuchTest") {
		t.Errorf("a stale alternative gave %q, want one miss naming TestNoSuchTest", misses)
	}
}

// ciPatternMisses checks every `go test` line of ci and returns one message
// per alternative that selects nothing, with the number of alternatives
// checked. funcs lists the functions a package directory's tests declare.
func ciPatternMisses(ci string, funcs func(dir string) []string) (misses []string, checked int) {
	kinds := map[string]string{"-run": "Test|Fuzz", "-bench": "Benchmark", "-fuzz": "Fuzz"}
	for n, line := range strings.Split(ci, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		args := shellWords(cmd)
		var dirs []string
		for _, a := range args {
			if (a == "." || strings.HasPrefix(a, "./")) && !strings.HasSuffix(a, "...") {
				dirs = append(dirs, filepath.Clean(a))
			}
		}
		if len(dirs) == 0 {
			continue
		}
		var declared []string
		for _, d := range dirs {
			declared = append(declared, funcs(d)...)
		}
		for i := 0; i+1 < len(args); i++ {
			kind, ok := kinds[args[i]]
			if !ok || args[i+1] == "^$" {
				continue
			}
			prefix := regexp.MustCompile("^(" + kind + ")")
			for _, alt := range topLevelAlternatives(args[i+1]) {
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					misses = append(misses, fmt.Sprintf("ci.yml:%d: %s %q: %v", n+1, args[i], alt, err))
					continue
				}
				if !slices.ContainsFunc(declared, func(f string) bool { return prefix.MatchString(f) && re.MatchString(f) }) {
					misses = append(misses, fmt.Sprintf("ci.yml:%d: %s alternative %q matches no %s function in %s", n+1, args[i], alt, kind, strings.Join(dirs, " ")))
				}
			}
		}
	}
	return misses, checked
}

// topLevelAlternatives splits a pattern's first level (go test matches the
// part before the first unbracketed / against top-level names) at the |
// outside parentheses and brackets.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|', '/':
			if depth > 0 {
				continue
			}
			alts = append(alts, pattern[start:i])
			if pattern[i] == '/' {
				return alts
			}
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}

// shellWords splits a command line at blanks, keeping single- and
// double-quoted words whole and dropping the quotes.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	in, quote := false, byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			w.WriteByte(c)
		case c == '\'' || c == '"':
			quote, in = c, true
		case c == ' ' || c == '\t':
			if in {
				words = append(words, w.String())
				w.Reset()
				in = false
			}
		default:
			w.WriteByte(c)
			in = true
		}
	}
	if in {
		words = append(words, w.String())
	}
	return words
}

// testFuncs returns a lookup of the functions (not methods) each package
// directory's _test.go files declare, whatever their build tags.
func testFuncs(t *testing.T) func(dir string) []string {
	t.Helper()
	return func(dir string) []string {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range files {
			file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return names
	}
}

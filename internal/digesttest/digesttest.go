// Package digesttest re-records the SHA-256 literals that tests pin outputs
// to. A digest test compares as it always has and, on a mismatch, asks Update
// before it fails:
//
//	if got != want && !digesttest.Update(t, want, got) {
//		t.Errorf("digest %s, recorded %s", got, want)
//	}
//
// Update reports false unless the test runs with -update-digests. Then, on a
// clean tree whose HEAD commits the change that moves the digest,
//
//	go test ./internal/simulation -run TestAsyncTraceDigest -update-digests -digest-reason "why"
//
// rewrites the literal in place in the package's test files, with the parent
// commit (HEAD^) and the reason in its line comment, so every re-record is a
// visible diff. Literals that still match are left alone.
package digesttest

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var (
	update = flag.Bool("update-digests", false, "rewrite each failing digest literal in place (clean tree only)")
	reason = flag.String("digest-reason", "", "one-line reason written next to each re-recorded digest literal")
)

var state struct {
	sync.Mutex
	once   sync.Once
	parent string
	err    error
}

var done = map[string]string{} // literals this process rewrote: old -> new, under state

// Update rewrites the digest literal want to got in the calling package's
// test files under -update-digests and reports whether it did.
func Update(t testing.TB, want, got string) bool {
	t.Helper()
	if !*update {
		return false
	}
	_, caller, _, _ := runtime.Caller(1)
	dir := filepath.Dir(caller)
	state.Lock()
	defer state.Unlock()
	state.once.Do(func() { state.parent, state.err = cleanParent(dir) })
	if state.err != nil {
		t.Fatalf("digesttest: %v", state.err)
	}
	if prev, ok := done[want]; ok {
		if prev != got {
			t.Fatalf("digesttest: %s re-recorded as both %s and %s", want, prev, got)
		}
		return true
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go")) // fails only on a malformed pattern
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil || !bytes.Contains(src, []byte(`"`+want+`"`)) {
			continue
		}
		out, err := rewrite(src, want, got, fmt.Sprintf("re-recorded, parent %s: %s", state.parent, *reason))
		if err == nil {
			err = os.WriteFile(f, out, 0o644)
		}
		if err != nil {
			t.Fatalf("digesttest: %s: %v", f, err)
		}
		done[want] = got
		t.Logf("digesttest: %s: %s re-recorded as %s", filepath.Base(f), want, got)
		return true
	}
	t.Fatalf("digesttest: no literal %q in %s", want, dir)
	return false
}

// cleanParent refuses a tree with uncommitted changes and returns HEAD^.
func cleanParent(dir string) (string, error) {
	if *reason == "" || strings.Contains(*reason, "\n") {
		return "", fmt.Errorf("-update-digests needs a one-line -digest-reason")
	}
	status, err := exec.Command("git", "-C", dir, "status", "--porcelain").Output()
	if err != nil {
		return "", fmt.Errorf("git status: %v", err)
	}
	if len(bytes.TrimSpace(status)) > 0 {
		return "", fmt.Errorf("refusing to re-record on a dirty tree; commit the change first:\n%s", status)
	}
	parent, err := exec.Command("git", "-C", dir, "rev-parse", "--short", "HEAD^").Output()
	if err != nil {
		return "", fmt.Errorf("git rev-parse HEAD^: %v", err)
	}
	return string(bytes.TrimSpace(parent)), nil
}

// rewrite replaces the one quoted literal old in src by new and sets the
// line comment after it to note, then gofmts the result.
func rewrite(src []byte, old, new, note string) ([]byte, error) {
	quoted := `"` + old + `"`
	if n := bytes.Count(src, []byte(quoted)); n != 1 {
		return nil, fmt.Errorf("literal %s occurs %d times, want 1", quoted, n)
	}
	at := bytes.Index(src, []byte(quoted))
	end := at + len(quoted)
	eol := bytes.IndexByte(src[end:], '\n')
	if eol < 0 {
		eol = len(src) - end
	}
	rest := src[end : end+eol]
	if c := bytes.Index(rest, []byte("//")); c >= 0 {
		rest = rest[:c]
	}
	var b bytes.Buffer
	b.Write(src[:at])
	fmt.Fprintf(&b, "%q%s // %s", new, bytes.TrimRight(rest, " \t"), note)
	b.Write(src[end+eol:])
	return format.Source(b.Bytes())
}

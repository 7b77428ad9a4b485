package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckFlagsRead: an experiment-specific flag is accepted only when an
// experiment that reads it is selected, and the error names the flag.
func TestCheckFlagsRead(t *testing.T) {
	for _, tc := range []struct {
		name    string
		names   []string
		set     []string
		wantErr string // "" accepts
	}{
		{"no flags", []string{"fig6"}, nil, ""},
		{"general flags anywhere", []string{"fig6"}, []string{"exp", "out", "scale", "seed", "cpuprofile", "memprofile"}, ""},
		{"datasets with table1", []string{"table1"}, []string{"datasets"}, ""},
		{"datasets with fig4", []string{"fig4"}, []string{"datasets"}, ""},
		{"datasets with fig5", []string{"fig5"}, []string{"datasets"}, ""},
		{"datasets with all", allExperiments, []string{"datasets", "eval-sample"}, ""},
		{"datasets with fig6", []string{"fig6"}, []string{"datasets"}, "-datasets"},
		{"datasets with ext-scale", []string{"ext-scale"}, []string{"datasets"}, "-datasets"},
		{"datasets with claims", []string{"claims"}, []string{"datasets"}, "-datasets"},
		{"eval-sample with ext-scale", []string{"ext-scale"}, []string{"eval-sample"}, ""},
		{"eval-sample with fig5", []string{"fig5"}, []string{"eval-sample"}, "-eval-sample"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlagsRead(tc.names, tc.set)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted, want an error naming %s", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}

// TestUnknownExperiment: an unknown -exp is rejected before any side effect
// (no output directory, no profile, nothing printed), and the error names
// the valid experiments.
func TestUnknownExperiment(t *testing.T) {
	dir := t.TempDir()
	out, prof := filepath.Join(dir, "d"), filepath.Join(dir, "p")
	var stdout bytes.Buffer
	err := run([]string{"-exp", "fig11", "-out", out, "-cpuprofile", prof}, &stdout)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, want := range []string{`"fig11"`, "fig2", "ext-semiasync", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	for _, path := range []string{out, prof} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s exists after the rejected run", path)
		}
	}
	if stdout.Len() > 0 {
		t.Errorf("printed %q before rejecting the run", stdout.String())
	}
}

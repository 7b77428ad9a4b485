//go:build !race

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/digesttest"
)

// outputDigests pins, for each of the 15 experiments at -scale micro -seed 7
// (claims reads seeds 7 and 8; about 25 s in all on a 2-core host), the
// SHA-256 of its stdout block and of its CSV ("" = the experiment writes no
// CSV). What varies between runs of the same build is masked: each block's
// "took", ext-scale's host-time fields wall-ms and events/s (wall_ms and
// events_per_sec in its CSV), and its decode-cache hit rate, decode
// (decode_hit_rate), whose count depends on how the worker pool interleaves.
var outputDigests = []struct{ name, stdout, csv string }{
	{"fig2", "d1ac9091a5f1c675f17804cfeaf037f054b2c2fc3a50e98386907a50abe1b779", "410c166338a0e90cc3c2503f70f124be0994792f25ead12b76f54baa0cffa269"},
	{"fig3", "eefb913d53a379274808c6a3d872994c78132a0c119886067d0603c725902221", "5d66a9e39c7a1b1aaaaa0a1ca471338dd5a6c51e46c81a71641da9360173da31"},   // re-recorded, parent e4a1f34: printed through the one Table printer: the same numbers at the same precision, in a header-and-rows table
	{"table1", "19d89b9956629950c03a770300a43b02058cfbded97b25b380c0f4af1ac682cc", "acb6c6558576966000b7c415239cbe4ac6731ebf98440dfda217e63a1b07c3f5"}, // re-recorded, parent 797a59a: table1 prints each test set's majority-class rate as a chance column
	{"fig5", "b3d4f826bf282c51cbbefd1a5c3b92f248738e9a2ac6eda35de04b54108e6133", "f03f7c7e9c66f32e88809e4021ce17ac02cf163cae3577267350e3e00f7c347e"},
	{"fig6", "f6ec80f2327af47c72b23f20d683bed60fe62918946a68b33ba80c93800da3a7", "800fa8130a3ecaa450e28784853c6b09a28c8f5e026cb24de5b12c6f95bf381e"}, // re-recorded, parent e4a1f34: printed through the one Table printer: the same numbers at the same precision, in a header-and-rows table
	{"fig7", "3be6e6d9abadf665dae78c7dec5c7216d53afa4d5ac8e39f629a7f8f11b9bdc7", "a0a94a1dbb2cab6acc9f95fb2b3e745ba5d58fb71d73eb769905ca2ff1b04457"}, // re-recorded, parent 08c45e3: fig7's dynamic arms read the seeded graph sequence topology.NewSeededDynamic gives the async epochs; the static arm is unchanged
	{"fig8", "859eca25ebcc38eae955b7fa1414e09cf7e7f113c807dc05930a055755d256df", "7a9cc10e56aea8f4bbb1b8fda00e5ee9def640c0a5c84dc68b93e3e7b831666f"}, // re-recorded, parent 6e43737: fig8's no-cut-off arm shares the JWINS arm's realised mean α every round, byte-matching it; claims reads that row
	{"fig9", "32facbb92c519173432ff5acc5535fbf8d77f3de624a19450ae8a543b679c169", "a468b6e16a3e9aae59ada756220efb283f18d4828d1f7c32e4f5b2bc73605cdf"}, // re-recorded, parent e4a1f34: printed through the one Table printer: the same numbers at the same precision, in a header-and-rows table
	{"fig10", "ec09ad026f3b5b6c8a7f03e781400c80fa1018a9d286125189e5cc86d7b7637d", "fb04265abe4281b0bfa2b0b697c230f4738b79b478fd950783ec24983d00b4f8"},
	{"ext-faults", "85290f2874d0fc021ec057a5600b5d9aca7618393b5dfa7569e46ab96d5b9abc", "1041b693721a77bd8a19facc4622d69e094af2a44ddf4ea784d1a978abb056fa"},     // re-recorded, parent 5f693d1: ext-faults prints each algorithm's lost points; claims scores ext-faults and ext-asyncchurn and widens its claim, exp and A − B columns
	{"ext-asyncchurn", "1938094c172723220a948db5d23bcb5d05644dce0554fed7df456027d089ec10", "45051c03629d5e28845b434e09c76fd1d7ec3b1b04b6c742b545a644c450b2c8"}, // re-recorded, parent e4a1f34: printed through the one Table printer: the same numbers at the same precision, in a header-and-rows table
	{"ext-dyntopo", "41b4e449a41b487ac555157b6277aab4dc21bee95d773e75d3af75ebad5e3e58", "36a1d3984a80f2c1f94503e89e3683366f69fa10ac44eb783ace14820508285a"},    // re-recorded, parent 9b085e4: EvalNodes and OfflineProb are gone: ext-scale and ext-dyntopo score a rotating 8-node EvalSample where they capped evaluation at 8 nodes, and ext-faults loses its offline churn column
	{"ext-scale", "5fab467572765ef5d7398263cd29aa316a3da95412f3bc42ef578e5ab732a123", "c57f08b8fba904f508eb08c048a0ce218df068c7834559b346936cc5f1f03fa1"},      // re-recorded, parent 9b085e4: EvalNodes and OfflineProb are gone: ext-scale and ext-dyntopo score a rotating 8-node EvalSample where they capped evaluation at 8 nodes, and ext-faults loses its offline churn column
	{"ext-semiasync", "c9dec6a131d7392a945020f33fd4d08c00f7f815328f5c15706593066cad8c55", "a0c580738b1d16fd78d0a83789342c5d2a3006b72c9183f0591ebf2d5e8e3b54"},
	{"claims", "df4cb874483f04ce343ecbc50d5891d6db4b6d609026fc2bcb1d5be664e72f92", "428b3449fdd6c9108cbbf2ef3139a105f5d2a78c3b5df4365efa5c5b30403270"}, // re-recorded, parent 6e43737: fig8's no-cut-off arm shares the JWINS arm's realised mean α every round, byte-matching it; claims reads that row
}

var (
	tookRE = regexp.MustCompile(`took [^)]*\)`)
	// An ext-scale text row: nodes, degree, arm, eval | events wall-ms
	// events/s | … | … spec decode | trace.
	scaleRowRE = regexp.MustCompile(`(?m)^(\d+ +\d+ +\S+ +\S+ +\| +\d+) +\S+ +\S+( \| .* +\S+%) +\S+%( \| )`)
)

// TestExperimentOutputDigests runs every experiment once through run and
// holds each one's printed table and CSV to the recorded digests.
func TestExperimentOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 15 experiments (about 25 s)")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "all", "-scale", "micro", "-seed", "7", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	blocks := stdoutBlocks(out.String())
	for _, d := range outputDigests {
		block, ok := blocks[d.name]
		if !ok {
			t.Errorf("%s: no stdout block", d.name)
			continue
		}
		if d.name == "ext-scale" {
			block = scaleRowRE.ReplaceAllString(block, "$1 wall-ms events/s$2 decode$3")
		}
		checkDigest(t, d.name+" stdout", d.stdout, []byte(block))

		csv, err := os.ReadFile(filepath.Join(dir, d.name+".csv"))
		if os.IsNotExist(err) && d.csv == "" {
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", d.name, err)
			continue
		}
		if d.name == "ext-scale" {
			csv = maskCSVColumns(csv, "wall_ms", "events_per_sec", "decode_hit_rate")
		}
		checkDigest(t, d.name+".csv", d.csv, csv)
	}
}

func checkDigest(t *testing.T, what, want string, b []byte) {
	t.Helper()
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want && !digesttest.Update(t, want, got) {
		t.Errorf("%s: digest %s, recorded %s", what, got, want)
	}
}

// stdoutBlocks splits run's output into one block per experiment: its "==="
// line with "took" masked, through the line before the next "===" line,
// without the "wrote" lines (which name the output directory) and with one
// trailing newline.
func stdoutBlocks(out string) map[string]string {
	blocks := map[string]string{}
	var name string
	var b strings.Builder
	flush := func() {
		if name != "" {
			blocks[name] = strings.TrimRight(b.String(), "\n") + "\n"
		}
		b.Reset()
	}
	for _, line := range strings.SplitAfter(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			flush()
			name, _, _ = strings.Cut(rest, " ")
			line = tookRE.ReplaceAllString(line, "took -)")
		}
		if name == "" || strings.HasPrefix(line, "wrote ") {
			continue
		}
		b.WriteString(line)
	}
	flush()
	return blocks
}

// maskCSVColumns replaces the named columns' fields in every row of the
// first CSV section (up to its first blank line) with "-".
func maskCSVColumns(csv []byte, names ...string) []byte {
	lines := strings.SplitAfter(string(csv), "\n")
	var idx []int
	for i, col := range strings.Split(strings.TrimSuffix(lines[0], "\n"), ",") {
		for _, n := range names {
			if col == n {
				idx = append(idx, i)
			}
		}
	}
	for r := 1; r < len(lines) && strings.TrimSpace(lines[r]) != ""; r++ {
		fields := strings.Split(strings.TrimSuffix(lines[r], "\n"), ",")
		for _, i := range idx {
			if i < len(fields) {
				fields[i] = "-"
			}
		}
		lines[r] = strings.Join(fields, ",") + "\n"
	}
	return []byte(strings.Join(lines, ""))
}

package sparsify

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

// referenceTopK is the obviously correct O(n log n) implementation.
func referenceTopK(v []float64, k int) []int {
	n := len(v)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		aa, ab := math.Abs(v[idx[a]]), math.Abs(v[idx[b]])
		if aa != ab {
			return aa > ab
		}
		return idx[a] < idx[b]
	})
	out := idx[:k]
	sort.Ints(out)
	return out
}

func TestTopKSmall(t *testing.T) {
	v := []float64{0.1, -5, 3, 0, 2}
	got := TopKIndices(v, 2)
	want := []int{1, 2}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if got := TopKIndices(nil, 3); len(got) != 0 {
		t.Fatalf("nil input: %v", got)
	}
	if got := TopKIndices([]float64{1, 2}, 0); got != nil {
		t.Fatalf("k=0: %v", got)
	}
	got := TopKIndices([]float64{1, 2}, 5)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("k>n: %v", got)
	}
}

func TestTopKTiesDeterministic(t *testing.T) {
	v := []float64{1, 1, 1, 1, 1}
	got := TopKIndices(v, 3)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie-breaking: %v, want %v", got, want)
		}
	}
}

func TestTopKMatchesReference(t *testing.T) {
	r := vec.NewRNG(31)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(200) + 1
		k := r.Intn(n + 2)
		v := make([]float64, n)
		for i := range v {
			// Mix in repeated values to stress tie handling.
			v[i] = float64(r.Intn(10)) * 0.5 * float64(1-2*(r.Intn(2)))
		}
		got := TopKIndices(v, k)
		want := referenceTopK(v, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): got %v want %v\nv=%v", trial, n, k, got, want, v)
			}
		}
	}
}

func TestQuickTopKSelectsLargest(t *testing.T) {
	f := func(seed uint64, rawN uint16, rawK uint16) bool {
		n := int(rawN)%500 + 1
		k := int(rawK) % (n + 1)
		r := vec.NewRNG(seed)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		got := TopKIndices(v, k)
		if len(got) != k {
			return false
		}
		if k == 0 || k == n {
			return true
		}
		chosen := make(map[int]bool, k)
		minChosen := math.Inf(1)
		for _, i := range got {
			chosen[i] = true
			if a := math.Abs(v[i]); a < minChosen {
				minChosen = a
			}
		}
		for i, x := range v {
			if !chosen[i] && math.Abs(x) > minChosen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKIntoMatchesSortedReference: the scratch-backed quickselect must
// agree index-for-index with the O(n log n) stable-sort reference across
// random sizes, duplicated magnitudes (tie handling), and scratch reuse —
// the selection a node makes must not depend on what its scratch held last
// round.
func TestTopKIntoMatchesSortedReference(t *testing.T) {
	var s TopKScratch
	r := vec.NewRNG(47)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(300) + 1
		k := r.Intn(n + 2)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r.Intn(8)) * 0.25 * float64(1-2*(r.Intn(2)))
		}
		got := TopKIndicesWith(&s, v, k)
		want := referenceTopK(v, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d k=%d): len %d vs %d", trial, n, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): got %v want %v\nv=%v", trial, n, k, got, want, v)
			}
		}
	}
}

// tiedMagnitudes returns n values whose magnitudes share their top `shared`
// bits (the sign bit, which is 0, and then the exponent down): their other
// bits come from a pool of n/4+1 random patterns, so exact ties are common,
// and one value in eight is drawn from the whole range instead, so there are
// magnitudes above and below the shared prefix. Signs are random.
func tiedMagnitudes(r *vec.RNG, n, shared int) []float64 {
	base := math.Float64bits(math.Abs(r.NormFloat64()))
	low := uint64(1)<<(64-shared) - 1
	pool := make([]uint64, n/4+1)
	for i := range pool {
		pool[i] = r.Uint64() & low
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(base&^low | pool[r.Intn(len(pool))])
		if r.Intn(8) == 0 {
			v[i] = r.NormFloat64()
		}
		if r.Intn(2) == 0 {
			v[i] = -v[i]
		}
	}
	return v
}

// checkTopK holds the selection to referenceTopK and refTopKWith.
func checkTopK(t *testing.T, s *TopKScratch, v []float64, k int) {
	t.Helper()
	got := TopKIndicesWith(s, v, k)
	var ref TopKScratch
	for name, want := range map[string][]int{"referenceTopK": referenceTopK(v, k), "refTopKWith": refTopKWith(&ref, v, k)} {
		if len(got) != len(want) {
			t.Fatalf("n=%d k=%d: %d indices, %s has %d", len(v), k, len(got), name, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d k=%d: index %d is %d, %s has %d", len(v), k, i, got[i], name, want[i])
			}
		}
	}
}

// TestTopKTieDepth: magnitudes that share their top 12 to 60 bits keep
// candidate sets alive through every mantissa byte down to the low nibble,
// with exact ties at the threshold. n runs up to 50k and k over [0, n+1],
// through one scratch reused across sizes.
func TestTopKTieDepth(t *testing.T) {
	var s TopKScratch
	r := vec.NewRNG(53)
	for trial := 0; trial < 120; trial++ {
		n := 1 + r.Intn(2000)
		if trial%10 == 0 {
			n = 1 + r.Intn(50_000)
		}
		shared := 12 + r.Intn(49)
		v := tiedMagnitudes(r, n, shared)
		for _, k := range []int{r.Intn(n + 2), r.Intn(n + 2), 1, n - 1, n} {
			checkTopK(t, &s, v, k)
		}
	}
}

// FuzzTopKParity: TopKIndicesWith against referenceTopK and refTopKWith on
// tiedMagnitudes, with data's first bytes taken as raw bit patterns of the
// first values (a NaN among them is replaced by +Inf, which referenceTopK's
// comparisons can rank).
func FuzzTopKParity(f *testing.F) {
	f.Add(uint16(100), uint16(30), uint8(0), uint64(1), []byte{})
	f.Add(uint16(1000), uint16(400), uint8(48), uint64(2), []byte{})
	f.Add(uint16(4000), uint16(1), uint8(40), uint64(3), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint16(64), uint16(65), uint8(20), uint64(4), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	var s TopKScratch
	f.Fuzz(func(t *testing.T, rawN, rawK uint16, shared uint8, seed uint64, data []byte) {
		n := 1 + int(rawN)%8192
		v := tiedMagnitudes(vec.NewRNG(seed), n, 12+int(shared)%49)
		for i := 0; 8*i+8 <= len(data) && i < n; i++ {
			if v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])); math.IsNaN(v[i]) {
				v[i] = math.Inf(1)
			}
		}
		checkTopK(t, &s, v, int(rawK)%(n+2))
	})
}

// BenchmarkTopKWith is a JWINS share's selection on the movielens model's
// 45,221 scores at three budgets, through one warm scratch: "ref" is the
// byte-wise radix select this package ran before (refTopKWith), "new" is
// TopKIndicesWith.
func BenchmarkTopKWith(b *testing.B) {
	r := vec.NewRNG(1)
	v := make([]float64, 45_221)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	for _, pct := range []int{5, 20, 40} {
		for _, arm := range []string{"ref", "new"} {
			pct, arm := pct, arm
			b.Run(fmt.Sprintf("k%d%%/%s", pct, arm), func(b *testing.B) {
				sel := TopKIndicesWith
				if arm == "ref" {
					sel = refTopKWith
				}
				var s TopKScratch
				k := len(v) * pct / 100
				sel(&s, v, k)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sel(&s, v, k)
				}
			})
		}
	}
}

// TestTopKIntoAllocationFree: a warm scratch must make selection free of
// allocations.
func TestTopKIntoAllocationFree(t *testing.T) {
	r := vec.NewRNG(3)
	v := make([]float64, 4096)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	var s TopKScratch
	TopKIndicesWith(&s, v, len(v)/10) // warm
	allocs := testing.AllocsPerRun(50, func() {
		TopKIndicesWith(&s, v, len(v)/10)
	})
	if allocs > 0 {
		t.Fatalf("TopKIndicesWith allocates %v per op with warm scratch, want 0", allocs)
	}
}

// TestAppendGather gathers in index order, narrows to float32 and reuses
// capacity.
func TestAppendGather(t *testing.T) {
	v := []float64{10, 20, 30, 40, 0.1}
	scratch := make([]float32, 0, 8)
	got := AppendGather(scratch, v, []int{4, 0, 2})
	want := []float32{0.1, 10, 30}
	if !slices.Equal(got, want) {
		t.Fatalf("AppendGather = %v, want %v", got, want)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("AppendGather reallocated despite sufficient capacity")
	}
}

func BenchmarkTopK(b *testing.B) {
	r := vec.NewRNG(1)
	n := 1 << 18
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopKIndices(v, n/10)
	}
}

package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSub(t *testing.T) {
	a := []float64{11, 22, 33}
	b := []float64{10, 20, 30}
	Sub(a, b)
	for i, w := range []float64{1, 2, 3} {
		if a[i] != w {
			t.Fatalf("Sub: got %v", a)
		}
	}
}

func TestMSE(t *testing.T) {
	a := []float64{3, 4}
	b := []float64{0, 0}
	if got := MSE(a, b); got != 12.5 {
		t.Fatalf("MSE = %v, want 12.5", got)
	}
}

func TestDiffInto(t *testing.T) {
	a := []float64{5, 7, 9}
	b := []float64{1, 2, 3}
	dst := []float64{-1, -1, -1}
	DiffInto(dst, a, b)
	want := []float64{4, 5, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("DiffInto = %v, want %v", dst, want)
		}
	}
	// Aliasing: dst may be one of the operands.
	DiffInto(a, a, b)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("aliased DiffInto = %v, want %v", a, want)
		}
	}
}

// TestAppendNarrow narrows in order, appends after what dst holds and reuses
// its capacity.
func TestAppendNarrow(t *testing.T) {
	dst := make([]float32, 1, 4)
	got := AppendNarrow(dst, []float64{0.1, -2, math.Inf(1)})
	want := []float32{0, 0.1, -2, float32(math.Inf(1))}
	if len(got) != len(want) || &got[0] != &dst[0] {
		t.Fatalf("AppendNarrow = %v, want %v in dst's array", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendNarrow = %v, want %v", got, want)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Sub([]float64{1}, []float64{1, 2})
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverge at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produce suspiciously similar streams")
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	r := NewRNG(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produce identical first values")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(1)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		// Each bucket expects 10000; allow 10% slack.
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn bucket %d badly skewed: %d/%d", v, c, draws)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(2)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(3)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(4)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm invalid at value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(5)
	s := r.SampleWithoutReplacement(50, 20)
	if len(s) != 20 {
		t.Fatalf("len = %d", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("not strictly increasing: %v", s)
		}
	}
	for _, v := range s {
		if v < 0 || v >= 50 {
			t.Fatalf("out of range: %d", v)
		}
	}
	// Full sample is the identity set.
	full := r.SampleWithoutReplacement(10, 10)
	for i, v := range full {
		if v != i {
			t.Fatalf("full sample missing %d: %v", i, full)
		}
	}
	// Empty sample.
	if got := r.SampleWithoutReplacement(10, 0); len(got) != 0 {
		t.Fatalf("empty sample: %v", got)
	}
}

func TestSampleUniformity(t *testing.T) {
	r := NewRNG(6)
	counts := make([]int, 20)
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		for _, v := range r.SampleWithoutReplacement(20, 5) {
			counts[v]++
		}
	}
	// Each index expects rounds*5/20 = 5000 hits.
	for v, c := range counts {
		if c < 4500 || c > 5500 {
			t.Fatalf("index %d sampled %d times, expected ~5000", v, c)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the SplitMix64 reference implementation.
	st := uint64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := SplitMix64(&st); got != w {
			t.Fatalf("SplitMix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestQuickDiffAddInverse(t *testing.T) {
	f := func(a []float64) bool {
		if len(a) == 0 {
			return true
		}
		b := make([]float64, len(a))
		for i := range b {
			b[i] = float64(i) * 0.5
		}
		d := make([]float64, len(a))
		DiffInto(d, a, b)
		for i := range d {
			d[i] += b[i]
		}
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
				continue
			}
			if math.Abs(d[i]-a[i]) > 1e-12*(1+math.Abs(a[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package dwt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refForward is the reference multi-level forward: the textbook kernel
// (AnalyzePeriodicFilters) cascaded exactly as the pre-plan Transformer did.
// The plan path must match it bit for bit.
func refForward(p *Plan, x []float64) []float64 {
	out := make([]float64, p.CoeffLen())
	cur := make([]float64, p.CoeffLen())
	next := make([]float64, p.CoeffLen())
	copy(cur, x)
	g := p.Wavelet().G()
	curLen := p.CoeffLen()
	for lvl := 1; lvl <= p.Levels(); lvl++ {
		half := curLen / 2
		b := layoutOf(p)[p.Levels()-lvl+1]
		AnalyzePeriodicFilters(cur[:curLen], p.Wavelet().H, g, next[:half], out[b.off:b.off+b.len])
		cur, next = next, cur
		curLen = half
	}
	copy(out[:curLen], cur[:curLen])
	return out
}

// refInverse cascades SynthesizePeriodicFilters the way the pre-plan
// Transformer did.
func refInverse(p *Plan, coeffs []float64) []float64 {
	cur := make([]float64, p.CoeffLen())
	next := make([]float64, p.CoeffLen())
	coarse := p.CoeffLen() >> uint(p.Levels())
	copy(cur[:coarse], coeffs[:coarse])
	g := p.Wavelet().G()
	curLen := coarse
	for lvl := p.Levels(); lvl >= 1; lvl-- {
		b := layoutOf(p)[p.Levels()-lvl+1]
		SynthesizePeriodicFilters(cur[:curLen], coeffs[b.off:b.off+b.len], p.Wavelet().H, g, next[:2*curLen])
		cur, next = next, cur
		curLen *= 2
	}
	out := make([]float64, p.n)
	copy(out, cur[:p.n])
	return out
}

// bitsEqual reports whether a and b are the same bit patterns (so zero signs
// count). Two NaNs count as equal whatever their sign and payload: when both
// operands of an addition are NaN, the hardware keeps the payload of whichever
// the compiler placed first, which neither IEEE 754 nor Go pins down.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// forEachDWTPath runs fn as a "vector" and a "portable" subtest: the first
// with the 4-lane levels on (skipped where the CPU or the build has none), the
// second with them off, so both answer to the same oracle.
func forEachDWTPath(t *testing.T, fn func(t *testing.T)) {
	defer setVectorPath(cpuAVX2)
	for _, path := range []string{"vector", "portable"} {
		path := path
		t.Run(path, func(t *testing.T) {
			if path == "vector" && !cpuAVX2 {
				t.Skip("no AVX2 path on this CPU or in this build")
			}
			setVectorPath(path == "vector")
			fn(t)
		})
	}
}

// tiny are zeros, subnormals and normals whose products with the taps are
// subnormal; specials adds what a lane has to carry exactly as the scalar
// chain does past them: infinities, a NaN and a product that overflows.
var (
	tiny     = []float64{0, 5e-324, 3e-320, 2.2e-308, 1e-308}
	specials = append([]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}, tiny...)
)

// signal returns n values in one of three moods: Gaussian (0), Gaussian with
// one value in sixteen swapped for a special (1), or three in four swapped for
// a tiny value of either sign (2).
func signal(rng *rand.Rand, n, mood int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		switch {
		case mood == 1 && rng.Intn(16) == 0:
			x[i] = specials[rng.Intn(len(specials))] * float64(1-2*rng.Intn(2))
		case mood == 2 && rng.Intn(4) != 0:
			x[i] = tiny[rng.Intn(len(tiny))] * float64(1-2*rng.Intn(2))
		}
	}
	return x
}

// checkPlan holds Forward of x and Inverse of coeffs to the reference cascade
// (plus Inverse of the forward result, the round trip a node runs).
func checkPlan(t *testing.T, p *Plan, x, coeffs []float64) {
	t.Helper()
	var s Scratch
	got := make([]float64, p.CoeffLen())
	p.Forward(x, got, &s)
	if want := refForward(p, x); !bitsEqual(got, want) {
		t.Fatalf("Forward(n=%d, %s, levels=%d) diverges from the reference kernel", p.n, p.wavelet.Name, p.levels)
	}
	for _, c := range [][]float64{got, coeffs} {
		out := make([]float64, p.n)
		p.Inverse(c, out, &s)
		if want := refInverse(p, c); !bitsEqual(out, want) {
			t.Fatalf("Inverse(n=%d, %s, levels=%d) diverges from the reference kernel", p.n, p.wavelet.Name, p.levels)
		}
	}
}

// TestPlanKernelsBitIdenticalToReference drives the specialized plan kernels
// (4-lane levels, wrap-free main region, unrolled 4-tap bank, gather
// synthesis, pad-free first level) on both paths and demands bit equality
// with the reference cascade: the 4-tap bank at every n in 1..700 and levels
// 1–5 and at the movielens model's 45,221 values, random dims, wavelets and
// depths beside it, over inputs with signed zeros, infinities, NaNs and
// subnormals.
func TestPlanKernelsBitIdenticalToReference(t *testing.T) {
	forEachDWTPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		plan := func(n, levels int, name string) *Plan {
			p, err := PlanFor(n, MustByName(name), levels)
			if err != nil {
				t.Fatalf("PlanFor(%d, %s, %d): %v", n, name, levels, err)
			}
			return p
		}
		for n := 1; n <= 700; n++ {
			for levels := 1; levels <= 5; levels++ {
				p, mood := plan(n, levels, "sym2"), (n+levels)%3
				checkPlan(t, p, signal(rng, n, mood), signal(rng, p.CoeffLen(), mood))
			}
		}
		for levels := 1; levels <= 5; levels++ {
			for mood := 0; mood < 3; mood++ {
				p := plan(45_221, levels, "sym2")
				checkPlan(t, p, signal(rng, p.n, mood), signal(rng, p.CoeffLen(), mood))
			}
		}
		names := waveletNames()
		sort.Strings(names)
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(600)
			if trial%17 == 0 {
				n = 4000 + rng.Intn(5000) // a few large-dim cases
			}
			p, mood := plan(n, 1+rng.Intn(6), names[rng.Intn(len(names))]), trial%3
			checkPlan(t, p, signal(rng, n, mood), signal(rng, p.CoeffLen(), mood))
		}
	})
}

// FuzzDWTParity: Plan.Forward and Inverse against refForward and refInverse
// on both paths, for any length, depth and wavelet; data's first bytes are
// taken as raw float64 bit patterns at the start of the signal and of the
// coefficients, the rest is drawn from seed in one of signal's moods.
func FuzzDWTParity(f *testing.F) {
	f.Add(uint16(9), uint8(0), uint8(0), uint64(1), []byte{})
	f.Add(uint16(17), uint8(1), uint8(3), uint64(2), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint16(700), uint8(4), uint8(6), uint64(3), []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add(uint16(1001), uint8(3), uint8(2), uint64(4), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	names := waveletNames()
	sort.Strings(names)
	f.Fuzz(func(t *testing.T, rawN uint16, rawLevels, wavelet uint8, seed uint64, data []byte) {
		n, levels := 1+int(rawN)%4096, 1+int(rawLevels)%6
		p, err := PlanFor(n, MustByName(names[int(wavelet)%len(names)]), levels)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		x, coeffs := signal(rng, n, int(seed%3)), signal(rng, p.CoeffLen(), int(seed/3%3))
		for i := 0; 8*i+8 <= len(data) && i < n; i++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			x[i], coeffs[i] = v, v
		}
		forEachDWTPath(t, func(t *testing.T) { checkPlan(t, p, x, coeffs) })
	})
}

// benchPlanArms runs fn over the movielens model's shape (45,221 values, sym2,
// four levels) once per arm, in one process: "ref" is the reference cascade,
// "portable" the Go kernels, "new" what this CPU selects (the 4-lane levels
// where it has AVX2, else "portable" again).
func benchPlanArms(b *testing.B, fn func(b *testing.B, p *Plan, arm string, x []float64)) {
	p, err := PlanFor(45_221, MustByName("sym2"), 4)
	if err != nil {
		b.Fatal(err)
	}
	x := signal(rand.New(rand.NewSource(5)), p.n, 0)
	for _, arm := range []string{"ref", "portable", "new"} {
		arm := arm
		b.Run(arm, func(b *testing.B) {
			setVectorPath(arm != "portable" && cpuAVX2)
			defer setVectorPath(cpuAVX2)
			b.ReportAllocs()
			fn(b, p, arm, x)
		})
	}
}

func BenchmarkPlanForward(b *testing.B) {
	benchPlanArms(b, func(b *testing.B, p *Plan, arm string, x []float64) {
		var s Scratch
		out := make([]float64, p.CoeffLen())
		p.Forward(x, out, &s) // warm the scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if arm == "ref" {
				refForward(p, x)
			} else {
				p.Forward(x, out, &s)
			}
		}
	})
}

func BenchmarkPlanInverse(b *testing.B) {
	benchPlanArms(b, func(b *testing.B, p *Plan, arm string, x []float64) {
		var s Scratch
		coeffs, out := refForward(p, x), make([]float64, p.n)
		p.Inverse(coeffs, out, &s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if arm == "ref" {
				refInverse(p, coeffs)
			} else {
				p.Inverse(coeffs, out, &s)
			}
		}
	})
}

// TestBatchBitIdenticalToLooped is the differential property test for the
// way a fleet runs the transform: a batch of same-shape signals pushed in
// order through one Plan with one shared Scratch (random dims, levels,
// wavelets, and batch sizes, including batch=1) must be bit-identical to
// transforming each signal with its own isolated Transformer, so no state
// leaks from one signal's cascade into the next.
func TestBatchBitIdenticalToLooped(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	names := waveletNames()
	sizes := []int{1, 2, 3, 5, 8, 11}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(900)
		levels := 1 + rng.Intn(5)
		name := names[rng.Intn(len(names))]
		batch := sizes[rng.Intn(len(sizes))]
		w := MustByName(name)
		p, err := PlanFor(n, w, levels)
		if err != nil {
			t.Fatalf("PlanFor(%d, %s, %d): %v", n, name, levels, err)
		}
		var s Scratch
		for b := 0; b < batch; b++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			tr, err := NewTransformer(n, w, levels)
			if err != nil {
				t.Fatal(err)
			}
			shared := make([]float64, p.CoeffLen())
			isolated := make([]float64, p.CoeffLen())
			p.Forward(x, shared, &s)
			tr.Forward(x, isolated)
			if !bitsEqual(shared, isolated) {
				t.Fatalf("Forward(n=%d, %s, levels=%d, batch=%d) signal %d diverges under a shared scratch",
					n, name, levels, batch, b)
			}
			sharedInv := make([]float64, n)
			isolatedInv := make([]float64, n)
			p.Inverse(shared, sharedInv, &s)
			tr.Inverse(isolated, isolatedInv)
			if !bitsEqual(sharedInv, isolatedInv) {
				t.Fatalf("Inverse(n=%d, %s, levels=%d, batch=%d) signal %d diverges under a shared scratch",
					n, name, levels, batch, b)
			}
		}
	}
}

// TestPlanMemoization checks the fleet-sharing contract: identical
// (dim, wavelet, levels) triples resolve to one *Plan, distinct triples to
// distinct plans, and a caller-constructed wavelet that collides with a
// registered name gets a private (uncached) plan instead of a wrong hit.
func TestPlanMemoization(t *testing.T) {
	w := MustByName("sym2")
	p1, err := PlanFor(1108, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanFor(1108, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("identical (dim, wavelet, levels) did not share a plan")
	}
	p3, err := PlanFor(1108, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("different levels shared a plan")
	}
	tr1, err := NewTransformer(1108, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := NewTransformer(1108, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Plan() != tr2.Plan() {
		t.Fatal("transformers with identical shape did not share a plan")
	}
	if tr1 == tr2 {
		t.Fatal("distinct transformers must not share scratch")
	}
	// Same name, different taps: must not hit the cached sym2 plan.
	imposter := Wavelet{Name: "sym2", H: []float64{0.5, 0.5, 0.5, 0.5}}
	pi, err := PlanFor(1108, imposter, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pi == p1 {
		t.Fatal("name-colliding wavelet with different taps hit the cached plan")
	}
	if pi.Wavelet().H[0] != 0.5 {
		t.Fatal("private plan lost its caller-supplied filter")
	}
}

// TestNewTransformerCacheHitAllocs locks in the fleet-build win: once a plan
// is cached, constructing another transformer of the same shape is one
// struct allocation — no filter, band-table, or scratch rebuilds.
func TestNewTransformerCacheHitAllocs(t *testing.T) {
	w := MustByName("sym2")
	if _, err := NewTransformer(50_000, w, 4); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewTransformer(50_000, w, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("NewTransformer on a cached plan allocates %.1f times, want <= 1 (the struct)", allocs)
	}
}

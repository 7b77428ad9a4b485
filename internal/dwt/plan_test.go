package dwt

import (
	"math"
	"math/rand"
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
		b := p.Bands()[p.Levels()-lvl+1]
		AnalyzePeriodicFilters(cur[:curLen], p.Wavelet().H, g, next[:half], out[b.Offset:b.Offset+b.Len])
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
		b := p.Bands()[p.Levels()-lvl+1]
		SynthesizePeriodicFilters(cur[:curLen], coeffs[b.Offset:b.Offset+b.Len], p.Wavelet().H, g, next[:2*curLen])
		cur, next = next, cur
		curLen *= 2
	}
	out := make([]float64, p.InputLen())
	copy(out, cur[:p.InputLen()])
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPlanKernelsBitIdenticalToReference drives the specialized plan kernels
// (wrap-free main region, unrolled 4-tap bank, pad-free first level) across
// random dims, wavelets, and depths and demands bit equality with the
// reference cascade.
func TestPlanKernelsBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := Names()
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(600)
		if trial%17 == 0 {
			n = 4000 + rng.Intn(5000) // a few large-dim cases
		}
		levels := 1 + rng.Intn(6)
		name := names[rng.Intn(len(names))]
		w := MustByName(name)
		p, err := PlanFor(n, w, levels)
		if err != nil {
			t.Fatalf("PlanFor(%d, %s, %d): %v", n, name, levels, err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var s Scratch
		got := make([]float64, p.CoeffLen())
		p.Forward(x, got, &s)
		want := refForward(p, x)
		if !bitsEqual(got, want) {
			t.Fatalf("Forward(n=%d, %s, levels=%d) diverges from reference kernel", n, name, levels)
		}
		gotInv := make([]float64, n)
		p.Inverse(got, gotInv, &s)
		wantInv := refInverse(p, want)
		if !bitsEqual(gotInv, wantInv) {
			t.Fatalf("Inverse(n=%d, %s, levels=%d) diverges from reference kernel", n, name, levels)
		}
	}
}

// TestBatchBitIdenticalToLooped is the differential property test for the
// way a fleet runs the transform: a batch of same-shape signals pushed in
// order through one Plan with one shared Scratch (random dims, levels,
// wavelets, and batch sizes, including batch=1) must be bit-identical to
// transforming each signal with its own isolated Transformer, so no state
// leaks from one signal's cascade into the next.
func TestBatchBitIdenticalToLooped(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	names := Names()
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

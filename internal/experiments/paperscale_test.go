package experiments

import (
	"testing"

	"repro/internal/vec"
)

// TestPaperScaleConstructs verifies the paper-scale presets (96 nodes,
// full-width models) build without error — running them is hours of compute,
// but their configuration must stay valid.
func TestPaperScaleConstructs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates full-size datasets")
	}
	if raceEnabled {
		t.Skip("race build: synthesizing the full-size datasets takes about 8 s plain and did not finish in 550 s under -race; the plain go test ./... run covers it")
	}
	for _, name := range WorkloadNames {
		w, err := NewWorkload(name, Paper, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Nodes != 96 {
			t.Fatalf("%s: paper scale has %d nodes, want 96", name, w.Nodes)
		}
		if w.Degree != 4 {
			t.Fatalf("%s: degree %d, want 4", name, w.Degree)
		}
		model := w.NewModel(vec.NewRNG(1))
		if model.ParamCount() < 10_000 {
			t.Fatalf("%s: paper-scale model only has %d params", name, model.ParamCount())
		}
	}
}

// TestPaperScaleScalabilitySizes checks the Figure 10 sweep uses the paper's
// node counts and degrees at paper scale.
func TestPaperScaleScalabilitySizes(t *testing.T) {
	sizes, degrees := fig10Sizes(Paper)
	wantN := []int{96, 192, 288, 384}
	wantD := []int{4, 5, 5, 6}
	for i := range wantN {
		if sizes[i] != wantN[i] || degrees[i] != wantD[i] {
			t.Fatalf("paper sweep %v/%v, want %v/%v", sizes, degrees, wantN, wantD)
		}
	}
}

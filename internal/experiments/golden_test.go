package experiments

import (
	"fmt"
	"math"
	"testing"
)

// goldenRow is what one micro synchronous run at seed 1 must reproduce: the
// byte ledger and simulated clock exactly, the final test metrics to 1e-12.
type goldenRow struct {
	dataset string
	algo    Algo

	total, model, meta int64
	simTime            float64
	loss, acc          float64
}

// goldenRows were recorded at the parent of the decode-once engine change
// (per-recipient decoding), so that change and every later deletion or
// refactor of a fast path has to reproduce the same numbers. A legitimate
// numeric change (new default, new codec) re-records the rows: the failure
// message prints the measured row as a Go literal.
//
// The Huffman-only flate32 encoder re-recorded total, model and simTime of
// every row (payloads are about a tenth smaller at micro size, and simulated
// time follows bytes). The meta, loss and acc literals are byte for byte the
// ones recorded before it: the codec is lossless, so an accuracy column that
// holds at 1e-12 is the proof that only the wire size moved.
//
// The two CHOCO rows' loss was re-recorded, parent 797a59a, when a CHOCO node
// started keeping q_i as the float32 values its neighbours decode instead of
// the unrounded difference: bytes, clock and accuracy held, the loss moved in
// its eighth digit.
var goldenRows = []goldenRow{
	{"cifar10", AlgoFull, 1463348, 1450868, 12480, 0.38965151999999992, 0.68410599075406109, 0.87187500000000007},
	{"cifar10", AlgoRandom, 561860, 545540, 16320, 0.38063616000000011, 1.0353291662533923, 0.68750000000000011},
	{"cifar10", AlgoJWINS, 512088, 458720, 53368, 0.38520671999999995, 0.79481701171753483, 0.78125},
	{"cifar10", AlgoChoco, 345768, 288120, 57648, 0.37847455999999996, 1.0446581636154715, 0.65312499999999996},
	{"movielens", AlgoFull, 1130508, 1118028, 12480, 0.31132127999999998, 0.49342673418058008, 0.5546875},
	{"movielens", AlgoRandom, 439624, 423304, 16320, 0.30441503999999997, 0.50196355984681651, 0.55937499999999996},
	{"movielens", AlgoJWINS, 396568, 355508, 41060, 0.30789823999999999, 0.49899287223952843, 0.56406250000000002},
	{"movielens", AlgoChoco, 273428, 226988, 46440, 0.30275616, 0.50442813766547434, 0.53593750000000007},
	// Recorded at the parent of the blocked convolution kernels (the
	// per-tap-tested Conv2D loops): the LEAF-CNN workloads (InC = 1, OutC !=
	// InC, no GroupNorm) and the fig8 ablation arms.
	{"femnist", AlgoJWINS, 894244, 813012, 81232, 0.39311968000000003, 0.75106588160089749, 0.89249999999999996},
	{"celeba", AlgoJWINS, 731112, 665028, 66084, 0.31452800000000003, 0.021311729217857973, 1},
	{"cifar10", AlgoJWINSNoWavelet, 510116, 456500, 53616, 0.38516479999999997, 0.82791854206757487, 0.765625},
	{"cifar10", AlgoJWINSNoAccum, 508296, 459008, 49288, 0.38519424000000008, 0.48546522975466988, 0.90624999999999989},
	{"cifar10", AlgoJWINSNoCutoff, 579088, 510416, 68672, 0.38081151999999996, 0.64961026749484552, 0.85312500000000002},
}

// TestGoldenRows pins the reproduction's numbers (ROADMAP "(e)"): micro
// synchronous runs of the four table-1 algorithms on the workload's own round
// budget, exactly as Table1 runs them.
func TestGoldenRows(t *testing.T) {
	const tol = 1e-12
	for _, want := range goldenRows {
		want := want
		t.Run(want.dataset+"/"+string(want.algo), func(t *testing.T) {
			w, err := NewWorkload(want.dataset, Micro, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(RunSpec{Workload: w, Algo: AlgoSpec{Kind: want.algo}, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRow{
				want.dataset, want.algo,
				res.TotalBytes, res.ModelBytes, res.MetaBytes,
				res.SimTime, res.FinalLoss, res.FinalAccuracy,
			}
			if got.total != want.total || got.model != want.model || got.meta != want.meta ||
				math.Abs(got.simTime-want.simTime) > tol ||
				math.Abs(got.loss-want.loss) > tol || math.Abs(got.acc-want.acc) > tol {
				t.Fatalf("golden row moved:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// String renders the row as the Go literal goldenRows holds.
func (r goldenRow) String() string {
	algo := map[Algo]string{
		AlgoFull: "AlgoFull", AlgoRandom: "AlgoRandom", AlgoJWINS: "AlgoJWINS", AlgoChoco: "AlgoChoco",
		AlgoJWINSNoWavelet: "AlgoJWINSNoWavelet", AlgoJWINSNoAccum: "AlgoJWINSNoAccum", AlgoJWINSNoCutoff: "AlgoJWINSNoCutoff",
	}[r.algo]
	return fmt.Sprintf("{%q, %s, %d, %d, %d, %.17g, %.17g, %.17g},",
		r.dataset, algo, r.total, r.model, r.meta, r.simTime, r.loss, r.acc)
}

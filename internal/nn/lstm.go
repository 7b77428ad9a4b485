package nn

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// LSTM is a single recurrent layer processing full sequences: input
// [N, T, In] to output [N, T, Hidden] (hidden state at every step). Stack two
// instances in a Sequential for the paper's stacked-LSTM Shakespeare model.
// Initial hidden and cell states are zero. Backward runs full BPTT.
//
// Gate layout in the packed weight matrices is [input; forget; cell; output].
type LSTM struct {
	In, Hidden int
	Wx         *Param // [4H, In]
	Wh         *Param // [4H, H]
	B          *Param // [4H]

	*lstmState
}

// lstmState is an LSTM's call state: its caches, indexed per timestep, and
// the BPTT carries.
type lstmState struct {
	x         *Tensor
	gates     []float64 // [T][N][4H] post-nonlinearity: i, f, g, o
	cells     []float64 // [T][N][H] cell states
	tanhCells []float64 // [T][N][H]
	hiddens   []float64 // [T][N][H]
	out, dx   tscratch

	dhNext, dcNext, dz []float64
}

var _ Layer = (*LSTM)(nil)

func (l *LSTM) attach(w *workspace) { l.lstmState = takeState[lstmState](w) }

// NewLSTM builds an LSTM layer with uniform(-1/sqrt(H), 1/sqrt(H)) init and
// forget-gate bias 1 (standard practice for stable early training).
func NewLSTM(in, hidden int, rng *vec.RNG) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		Wx:     newParam(fmt.Sprintf("lstm_%dx%d.wx", hidden, in), 4*hidden*in),
		Wh:     newParam(fmt.Sprintf("lstm_%dx%d.wh", hidden, in), 4*hidden*hidden),
		B:      newParam(fmt.Sprintf("lstm_%dx%d.b", hidden, in), 4*hidden),
	}
	bound := 1 / math.Sqrt(float64(hidden))
	for i := range l.Wx.Data {
		l.Wx.Data[i] = (2*rng.Float64() - 1) * bound
	}
	for i := range l.Wh.Data {
		l.Wh.Data[i] = (2*rng.Float64() - 1) * bound
	}
	for h := 0; h < hidden; h++ {
		l.B.Data[hidden+h] = 1 // forget gate bias
	}
	return l
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Forward implements Layer. x must be [N, T, In].
func (l *LSTM) Forward(x *Tensor, _ bool) *Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != l.In {
		panic(fmt.Sprintf("nn: LSTM expects [N, T, %d], got %v", l.In, x.Shape))
	}
	n, t := x.Shape[0], x.Shape[1]
	h4 := 4 * l.Hidden
	hd := l.Hidden
	own(&l.lstmState).x = x
	grow(&l.gates, t*n*h4)
	grow(&l.cells, t*n*hd)
	grow(&l.tanhCells, t*n*hd)
	grow(&l.hiddens, t*n*hd)
	y := l.out.ensure(n, t, hd)

	wx, wh, b := l.Wx.Data, l.Wh.Data, l.B.Data
	for ti := 0; ti < t; ti++ {
		for ni := 0; ni < n; ni++ {
			xrow := x.Data[(ni*t+ti)*l.In:][:l.In:l.In]
			var hPrev, cPrev []float64
			if ti > 0 {
				hPrev = l.hiddens[((ti-1)*n+ni)*hd:][:hd:hd]
				cPrev = l.cells[((ti-1)*n+ni)*hd:][:hd:hd]
			}
			gateRow := l.gates[(ti*n+ni)*h4:][:h4:h4]
			cellRow := l.cells[(ti*n+ni)*hd:][:hd:hd]
			tanhRow := l.tanhCells[(ti*n+ni)*hd:][:hd:hd]
			hidRow := l.hiddens[(ti*n+ni)*hd:][:hd:hd]
			for u := 0; u < h4; u++ {
				s := b[u]
				wxRow := wx[u*l.In:][:l.In:l.In]
				for k, xv := range xrow {
					s += wxRow[k] * xv
				}
				if hPrev != nil {
					whRow := wh[u*hd:][:hd:hd]
					for k, hv := range hPrev {
						s += whRow[k] * hv
					}
				}
				gateRow[u] = s
			}
			for hIdx := 0; hIdx < hd; hIdx++ {
				iG := sigmoid(gateRow[hIdx])
				fG := sigmoid(gateRow[hd+hIdx])
				gG := math.Tanh(gateRow[2*hd+hIdx])
				oG := sigmoid(gateRow[3*hd+hIdx])
				gateRow[hIdx], gateRow[hd+hIdx], gateRow[2*hd+hIdx], gateRow[3*hd+hIdx] = iG, fG, gG, oG
				var cPrevV float64
				if cPrev != nil {
					cPrevV = cPrev[hIdx]
				}
				c := fG*cPrevV + iG*gG
				tc := math.Tanh(c)
				cellRow[hIdx] = c
				tanhRow[hIdx] = tc
				hidRow[hIdx] = oG * tc
			}
			copy(y.Data[(ni*t+ti)*hd:][:hd:hd], hidRow)
		}
	}
	return y
}

// Backward implements Layer.
func (l *LSTM) Backward(grad *Tensor) *Tensor {
	x := l.x
	n, t := x.Shape[0], x.Shape[1]
	hd := l.Hidden
	h4 := 4 * hd
	dx := l.dx.ensureZero(x.Shape...)
	wx, wh := l.Wx.Data, l.Wh.Data
	gwx, gwh, gb := l.Wx.grads(), l.Wh.grads(), l.B.grads()

	// dL/dh_t and dL/dc_t flowing from t+1 start at zero; dz is written before it is read.
	dhNext, dcNext, dz := grow(&l.dhNext, n*hd), grow(&l.dcNext, n*hd), grow(&l.dz, h4)
	clear(dhNext)
	clear(dcNext)

	for ti := t - 1; ti >= 0; ti-- {
		for ni := 0; ni < n; ni++ {
			gateRow := l.gates[(ti*n+ni)*h4:][:h4:h4]
			tanhRow := l.tanhCells[(ti*n+ni)*hd:][:hd:hd]
			var cPrev, hPrev []float64
			if ti > 0 {
				cPrev = l.cells[((ti-1)*n+ni)*hd:][:hd:hd]
				hPrev = l.hiddens[((ti-1)*n+ni)*hd:][:hd:hd]
			}
			for hIdx := 0; hIdx < hd; hIdx++ {
				dh := grad.Data[(ni*t+ti)*hd+hIdx] + dhNext[ni*hd+hIdx]
				iG, fG, gG, oG := gateRow[hIdx], gateRow[hd+hIdx], gateRow[2*hd+hIdx], gateRow[3*hd+hIdx]
				tc := tanhRow[hIdx]
				dc := dh*oG*(1-tc*tc) + dcNext[ni*hd+hIdx]
				var cPrevV float64
				if cPrev != nil {
					cPrevV = cPrev[hIdx]
				}
				dI := dc * gG
				dF := dc * cPrevV
				dG := dc * iG
				dO := dh * tc
				dz[hIdx] = dI * iG * (1 - iG)
				dz[hd+hIdx] = dF * fG * (1 - fG)
				dz[2*hd+hIdx] = dG * (1 - gG*gG)
				dz[3*hd+hIdx] = dO * oG * (1 - oG)
				dcNext[ni*hd+hIdx] = dc * fG
				dhNext[ni*hd+hIdx] = 0 // recomputed below from Wh^T dz
			}
			xrow := x.Data[(ni*t+ti)*l.In:][:l.In:l.In]
			dxRow := dx.Data[(ni*t+ti)*l.In:][:l.In:l.In]
			for u := 0; u < h4; u++ {
				dzu := dz[u]
				if dzu == 0 {
					continue
				}
				gb[u] += dzu
				wxRow := wx[u*l.In:][:l.In:l.In]
				gwxRow := gwx[u*l.In:][:l.In:l.In]
				for k, xv := range xrow {
					gwxRow[k] += dzu * xv
					dxRow[k] += dzu * wxRow[k]
				}
				if hPrev != nil {
					whRow := wh[u*hd:][:hd:hd]
					gwhRow := gwh[u*hd:][:hd:hd]
					dhPrev := dhNext[ni*hd:][:hd:hd]
					for k, hv := range hPrev {
						gwhRow[k] += dzu * hv
						dhPrev[k] += dzu * whRow[k]
					}
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

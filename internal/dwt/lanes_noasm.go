//go:build !amd64 || purego

package dwt

const haveAVX2 = false // every level runs the Go kernels of plan.go

func analyzeLanes(_, _, _, _, _ []float64, _ int) int { return 0 }

func synthesizeLanes(_, _, _, _, _ []float64) int { return 0 }

//go:build !amd64 || purego

package nn

const haveAVX2 = false // Forward runs the portable kernels only

func (c *Conv2D) forwardLanes(*convGeom, []float64, []float64, int) int { return 0 }

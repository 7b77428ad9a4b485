//go:build !amd64 || purego

package nn

const haveAVX2 = false // Forward and Backward run the portable kernels only

type laneRuns struct{} // the vector path's run table, which this build has no use for

func (c *Conv2D) forwardLanes(*convGeom, []float64, []float64, int) int { return 0 }

func (c *Conv2D) backwardLanes(_ *convGeom, _, _, _ *Tensor) (int, int) { return 0, 0 }

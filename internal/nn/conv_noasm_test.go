//go:build !amd64 || purego

package nn

// There is no vector path in this build: forEachConvPath skips its "vector"
// subtest and the "portable" one runs what this build always runs.
const cpuAVX2 = false

func setVectorPath(bool) {}

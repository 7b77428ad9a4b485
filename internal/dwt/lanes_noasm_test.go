//go:build !amd64 || purego

package dwt

// There is no vector path in this build: forEachDWTPath skips its "vector"
// subtest and the "portable" one runs what this build always runs.
const cpuAVX2 = false

func setVectorPath(bool) {}

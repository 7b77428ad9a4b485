//go:build amd64 && !purego

package dwt

// cpuAVX2 is what the CPU selected, read before any test flips the path.
var cpuAVX2 = haveAVX2

// setVectorPath turns the 4-lane levels on or off (see forEachDWTPath).
func setVectorPath(on bool) { haveAVX2 = on }

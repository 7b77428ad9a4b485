//go:build amd64 && !purego

package vec

// HasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// across context switches: the one CPUID probe behind every 4-lane routine in
// the repository. Each package that has such a routine calls it once, at
// start-up, into a variable of its own that its tests can flip.
func HasAVX2() bool

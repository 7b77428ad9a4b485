//go:build !amd64 || purego

package vec

// HasAVX2 is false where the build carries no assembly: every kernel runs its
// portable Go loops.
func HasAVX2() bool { return false }

package imaging

// accumBlocks16 writes the accumulate of columns [0, len(dst)&^15) in
// blocks of 16, the SSE body of accumulate. Each lane runs MULPS then
// ADDPS per tap in ascending k from a zeroed accumulator — the same two
// float32 roundings per tap, in the same order, as accumGo — so its
// output is bit-identical to the portable loop. SSE is baseline amd64:
// there is no CPU feature check, and no FMA, whose single rounding
// would change the low bits. Callers guarantee len(srcs) ==
// len(kernel) and len(srcs[k]) >= len(dst) for every k.
//
//go:noescape
func accumBlocks16(dst []float32, srcs [][]float32, kernel []float32)

// accumBlocks runs the SSE blocks and returns the first column left for
// accumGo.
func accumBlocks(dst []float32, srcs [][]float32, kernel []float32) int {
	n := len(dst) &^ 15
	if n == 0 || len(kernel) == 0 {
		return 0
	}
	accumBlocks16(dst[:n], srcs, kernel)
	return n
}

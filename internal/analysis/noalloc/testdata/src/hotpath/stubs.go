package hotpath

// sumBlocks is an assembly stub without //go:noescape: every slice
// passed to it escapes to the heap.
func sumBlocks(dst, src []float32) // want "assembly stub sumBlocks lacks //go:noescape"

// scaleBlocks is a clean stub: the directive keeps its arguments on the
// caller's stack.
//
//go:noescape
func scaleBlocks(dst, src []float32, k float32)

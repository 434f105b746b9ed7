//go:build !amd64

package imaging

// accumBlocks has no assembly body on this architecture: accumGo
// accumulates every column.
func accumBlocks(dst []float32, srcs [][]float32, kernel []float32) int { return 0 }

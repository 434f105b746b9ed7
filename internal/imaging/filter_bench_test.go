package imaging

import "testing"

// BenchmarkSobel tracks the gradient raster path used by ORB's Harris
// ranking.
func BenchmarkSobel(b *testing.B) {
	f := NewFloatGray(128, 128)
	for i := range f.Pix {
		f.Pix[i] = float32(i%251) / 251
	}
	for i := 0; i < b.N; i++ {
		f.Sobel()
	}
}

package imaging

import "testing"

// TestAccumBlocks16MatchesGo compares the SSE blocks directly with the
// portable loop over the same columns: every block count from 1 to 9,
// 1 to 21 taps, plain and special-value rows.
func TestAccumBlocks16MatchesGo(t *testing.T) {
	for blocks := 1; blocks <= 9; blocks++ {
		w := 16 * blocks
		for taps := 1; taps <= 21; taps++ {
			for _, special := range []bool{false, true} {
				src := randomRaster(w, taps, uint32(blocks*131+taps))
				if special {
					src = specialRaster(w, taps, uint32(blocks*131+taps))
				}
				kernel := randomRaster(taps, 1, uint32(taps)).Pix
				srcs := make([][]float32, taps)
				for k := range srcs {
					srcs[k] = src.Pix[k*w : (k+1)*w]
				}
				want := make([]float32, w)
				accumGo(want, srcs, kernel, 0)
				got := make([]float32, w)
				accumBlocks16(got, srcs, kernel)
				for x := range want {
					if !sameFloat(want[x], got[x]) {
						t.Fatalf("w%d taps%d special=%v: column %d = %v, want %v", w, taps, special, x, got[x], want[x])
					}
				}
			}
		}
	}
}

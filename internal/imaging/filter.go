package imaging

import (
	"math"

	"snmatch/internal/arena"
)

// GaussianKernel returns a normalised 1-D Gaussian kernel for the given
// sigma. The radius defaults to ceil(3*sigma) when radius <= 0.
func GaussianKernel(sigma float64, radius int) []float32 {
	return GaussianKernelIn(nil, sigma, radius)
}

// GaussianKernelIn is GaussianKernel with the kernel drawn from the
// arena; the weights are recomputed either way, so pooled kernels are
// bit-identical to fresh ones.
func GaussianKernelIn(a *arena.Arena, sigma float64, radius int) []float32 {
	if sigma <= 0 {
		k := arena.Slice[float32](a, 1)
		k[0] = 1
		return k
	}
	if radius <= 0 {
		radius = int(math.Ceil(3 * sigma))
		if radius < 1 {
			radius = 1
		}
	}
	k := arena.Slice[float32](a, 2*radius+1)
	sum := 0.0
	inv := 1 / (2 * sigma * sigma)
	for i := -radius; i <= radius; i++ {
		v := math.Exp(-float64(i*i) * inv)
		k[i+radius] = float32(v)
		sum += v
	}
	for i := range k {
		k[i] = float32(float64(k[i]) / sum)
	}
	return k
}

// ConvolveSeparable applies the 1-D kernel horizontally then vertically
// with replicate border handling, returning a new raster. Both passes
// run one accumulate kernel (dst[x] = Σ_k srcs[k][x]·kernel[k], summed
// in ascending k), so every output pixel equals the naive per-tap
// clamped loop of the horizontal pass followed by the vertical one, bit
// for bit. The passes are fused through a ring buffer of horizontally
// convolved rows, so the full intermediate raster is never
// materialised.
func (f *FloatGray) ConvolveSeparable(kernel []float32) *FloatGray {
	return f.ConvolveSeparableIn(nil, kernel)
}

// ConvolveSeparableIn is ConvolveSeparable with the output raster and
// the fused-pass scratch (ring buffer, padded row, tap tables) drawn
// from the arena.
func (f *FloatGray) ConvolveSeparableIn(a *arena.Arena, kernel []float32) *FloatGray {
	r := len(kernel) / 2
	k := len(kernel)
	out := NewFloatGrayIn(a, f.W, f.H)
	w, h := f.W, f.H
	if w == 0 || h == 0 {
		return out
	}
	// ring holds the last k horizontally-convolved rows; row j lives at
	// slot j%k, and the window [y-r, y+r] never exceeds k rows.
	ring := arena.Slice[float32](a, k*w)
	// The horizontal pass reads a replicate-padded copy of each source
	// row through k shifted views: tap i of output column x is
	// padded[x+i], the source pixel at column clamp(x+i-r).
	padded := arena.Slice[float32](a, w+k-1)
	hsrcs := arena.Slice[[]float32](a, k)
	for i := range hsrcs {
		hsrcs[i] = padded[i : i+w]
	}
	vsrcs := arena.Slice[[]float32](a, k)
	computed := -1
	for y := 0; y < h; y++ {
		// The window's last tap reads row y+(k-1)-r (== y+r for odd
		// kernels); using k-1-r keeps even-length kernels from
		// computing an extra row whose ring slot would collide with
		// the window's first row.
		need := y + (k - 1 - r)
		if need > h-1 {
			need = h - 1
		}
		for computed < need {
			computed++
			padRow(padded, f.Pix[computed*w:(computed+1)*w], r)
			accumulate(ring[(computed%k)*w:(computed%k)*w+w], hsrcs, kernel)
		}
		for i := range kernel {
			sy := y + i - r
			if sy < 0 {
				sy = 0
			} else if sy >= h {
				sy = h - 1
			}
			vsrcs[i] = ring[(sy%k)*w : (sy%k)*w+w]
		}
		accumulate(out.Pix[y*w:(y+1)*w], vsrcs, kernel)
	}
	return out
}

// padRow writes row into padded with r replicated copies of its first
// pixel before it and the rest of padded filled with its last pixel.
func padRow(padded, row []float32, r int) {
	first, last := row[0], row[len(row)-1]
	for i := range padded[:r] {
		padded[i] = first
	}
	tail := padded[r+copy(padded[r:], row):]
	for i := range tail {
		tail[i] = last
	}
}

// accumulate writes dst[x] = Σ_k srcs[k][x]·kernel[k] for every column,
// each pixel summing its taps in ascending k from zero. It checks the
// shapes the block kernel relies on, runs the architecture's blocks
// (accumBlocks), and finishes the remaining columns with accumGo.
func accumulate(dst []float32, srcs [][]float32, kernel []float32) {
	if len(srcs) != len(kernel) {
		panic("imaging: accumulate needs one source row per kernel tap")
	}
	for _, src := range srcs {
		if len(src) < len(dst) {
			panic("imaging: accumulate source row shorter than its destination")
		}
	}
	accumGo(dst, srcs, kernel, accumBlocks(dst, srcs, kernel))
}

// accumGo is the portable accumulate loop over columns [x0, len(dst)):
// blocks of eight columns accumulate in registers across all taps and
// store each output once, then single columns finish the row. It is
// the reference the assembly blocks are tested against.
func accumGo(dst []float32, srcs [][]float32, kernel []float32, x0 int) {
	w := len(dst)
	x := x0
	for ; x+8 <= w; x += 8 {
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		for k, kv := range kernel {
			src := srcs[k][x : x+8]
			a0 += src[0] * kv
			a1 += src[1] * kv
			a2 += src[2] * kv
			a3 += src[3] * kv
			a4 += src[4] * kv
			a5 += src[5] * kv
			a6 += src[6] * kv
			a7 += src[7] * kv
		}
		dst[x] = a0
		dst[x+1] = a1
		dst[x+2] = a2
		dst[x+3] = a3
		dst[x+4] = a4
		dst[x+5] = a5
		dst[x+6] = a6
		dst[x+7] = a7
	}
	for ; x < w; x++ {
		var acc float32
		for k, kv := range kernel {
			acc += srcs[k][x] * kv
		}
		dst[x] = acc
	}
}

// GaussianBlur returns f blurred with an isotropic Gaussian of the given
// sigma. Sigma <= 0 returns a copy.
func (f *FloatGray) GaussianBlur(sigma float64) *FloatGray { return f.GaussianBlurIn(nil, sigma) }

// GaussianBlurIn is GaussianBlur with every intermediate (kernel,
// fused-pass scratch, output raster) drawn from the arena.
func (f *FloatGray) GaussianBlurIn(a *arena.Arena, sigma float64) *FloatGray {
	if sigma <= 0 {
		out := NewFloatGrayIn(a, f.W, f.H)
		copy(out.Pix, f.Pix)
		return out
	}
	return f.ConvolveSeparableIn(a, GaussianKernelIn(a, sigma, 0))
}

// GaussianBlur returns g blurred with an isotropic Gaussian.
func (g *Gray) GaussianBlur(sigma float64) *Gray { return g.GaussianBlurIn(nil, sigma) }

// GaussianBlurIn is GaussianBlur with the float round-trip and result
// drawn from the arena.
func (g *Gray) GaussianBlurIn(a *arena.Arena, sigma float64) *Gray {
	if sigma <= 0 {
		out := NewGrayIn(a, g.W, g.H)
		copy(out.Pix, g.Pix)
		return out
	}
	return g.ToFloatIn(a).GaussianBlurIn(a, sigma).ToGrayIn(a)
}

// GaussianBlur blurs each RGB channel independently.
func (m *Image) GaussianBlur(sigma float64) *Image {
	if sigma <= 0 {
		return m.Clone()
	}
	kernel := GaussianKernel(sigma, 0)
	chans := [3]*FloatGray{}
	for c := 0; c < 3; c++ {
		f := NewFloatGray(m.W, m.H)
		for p, i := 0, c; p < len(f.Pix); p, i = p+1, i+3 {
			f.Pix[p] = float32(m.Pix[i])
		}
		chans[c] = f.ConvolveSeparable(kernel)
	}
	out := NewImage(m.W, m.H)
	for p := 0; p < m.W*m.H; p++ {
		out.Pix[p*3] = clamp8(float64(chans[0].Pix[p]))
		out.Pix[p*3+1] = clamp8(float64(chans[1].Pix[p]))
		out.Pix[p*3+2] = clamp8(float64(chans[2].Pix[p]))
	}
	return out
}

// Sobel computes horizontal and vertical derivative rasters using the
// standard 3x3 Sobel operators. Interior pixels index the three source
// rows directly (the border ring keeps the clamped path); the derivative
// expressions are identical in both paths, so the output matches the
// fully clamped loop bit for bit.
func (f *FloatGray) Sobel() (gx, gy *FloatGray) { return f.SobelIn(nil) }

// SobelIn is Sobel with both derivative rasters drawn from the arena.
func (f *FloatGray) SobelIn(a *arena.Arena) (gx, gy *FloatGray) {
	gx = NewFloatGrayIn(a, f.W, f.H)
	gy = NewFloatGrayIn(a, f.W, f.H)
	w, h := f.W, f.H
	for y := 0; y < h; y++ {
		if y > 0 && y < h-1 && w > 2 {
			up := f.Pix[(y-1)*w : y*w]
			mid := f.Pix[y*w : (y+1)*w]
			dn := f.Pix[(y+1)*w : (y+2)*w]
			gxRow := gx.Pix[y*w : (y+1)*w]
			gyRow := gy.Pix[y*w : (y+1)*w]
			for x := 1; x < w-1; x++ {
				p00, p10, p20 := up[x-1], up[x], up[x+1]
				p01, p21 := mid[x-1], mid[x+1]
				p02, p12, p22 := dn[x-1], dn[x], dn[x+1]
				gxRow[x] = (p20 + 2*p21 + p22) - (p00 + 2*p01 + p02)
				gyRow[x] = (p02 + 2*p12 + p22) - (p00 + 2*p10 + p20)
			}
			sobelClamped(f, gx, gy, 0, y)
			sobelClamped(f, gx, gy, w-1, y)
			continue
		}
		for x := 0; x < w; x++ {
			sobelClamped(f, gx, gy, x, y)
		}
	}
	return gx, gy
}

// sobelClamped evaluates both Sobel operators at one (possibly border)
// pixel with replicate clamping.
func sobelClamped(f, gx, gy *FloatGray, x, y int) {
	p00 := f.AtClamped(x-1, y-1)
	p10 := f.AtClamped(x, y-1)
	p20 := f.AtClamped(x+1, y-1)
	p01 := f.AtClamped(x-1, y)
	p21 := f.AtClamped(x+1, y)
	p02 := f.AtClamped(x-1, y+1)
	p12 := f.AtClamped(x, y+1)
	p22 := f.AtClamped(x+1, y+1)
	gx.Pix[y*f.W+x] = (p20 + 2*p21 + p22) - (p00 + 2*p01 + p02)
	gy.Pix[y*f.W+x] = (p02 + 2*p12 + p22) - (p00 + 2*p10 + p20)
}

// Subtract returns f - o element-wise; the rasters must be equally sized.
func (f *FloatGray) Subtract(o *FloatGray) *FloatGray { return f.SubtractIn(nil, o) }

// SubtractIn is Subtract with the result drawn from the arena.
func (f *FloatGray) SubtractIn(a *arena.Arena, o *FloatGray) *FloatGray {
	if f.W != o.W || f.H != o.H {
		panic("imaging: Subtract size mismatch")
	}
	out := NewFloatGrayIn(a, f.W, f.H)
	p, q, dst := f.Pix, o.Pix[:len(f.Pix)], out.Pix[:len(f.Pix)]
	for i := range p {
		dst[i] = p[i] - q[i]
	}
	return out
}

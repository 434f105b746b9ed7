package imaging

import (
	"image"
	"image/color/palette"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"snmatch/internal/geom"
)

func TestRGBLuma(t *testing.T) {
	if got := White.Luma(); got != 255 {
		t.Errorf("white luma = %d", got)
	}
	if got := Black.Luma(); got != 0 {
		t.Errorf("black luma = %d", got)
	}
	// Green contributes most to luma.
	g := RGB{0, 255, 0}.Luma()
	r := RGB{255, 0, 0}.Luma()
	b := RGB{0, 0, 255}.Luma()
	if !(g > r && r > b) {
		t.Errorf("luma ordering wrong: r=%d g=%d b=%d", r, g, b)
	}
}

func TestRGBMixScale(t *testing.T) {
	mid := Black.Mix(White, 0.5)
	if mid.R < 126 || mid.R > 129 {
		t.Errorf("mix midpoint = %v", mid)
	}
	if got := White.Scale(2); got != White {
		t.Errorf("scale clamps high: %v", got)
	}
	if got := White.Scale(-1); got != Black {
		t.Errorf("scale clamps low: %v", got)
	}
}

func TestImageAtSetCrop(t *testing.T) {
	m := NewImage(10, 8)
	m.Set(3, 4, RGB{1, 2, 3})
	if got := m.At(3, 4); got != (RGB{1, 2, 3}) {
		t.Errorf("At = %v", got)
	}
	m.Set(-1, 0, White) // ignored
	m.Set(10, 0, White) // ignored
	c := m.Crop(geom.R(2, 3, 6, 7))
	if c.W != 4 || c.H != 4 {
		t.Fatalf("crop size = %dx%d", c.W, c.H)
	}
	if got := c.At(1, 1); got != (RGB{1, 2, 3}) {
		t.Errorf("crop content = %v", got)
	}
	if got := m.Crop(geom.R(20, 20, 30, 30)); got != nil {
		t.Errorf("out-of-range crop = %v, want nil", got)
	}
}

func TestImageCloneIndependent(t *testing.T) {
	m := NewImageFilled(4, 4, White)
	c := m.Clone()
	c.Set(0, 0, Black)
	if m.At(0, 0) != White {
		t.Error("Clone shares pixels")
	}
}

func TestAtClamped(t *testing.T) {
	m := NewImage(3, 3)
	m.Set(0, 0, RGB{9, 9, 9})
	if got := m.AtClamped(-5, -5); got != (RGB{9, 9, 9}) {
		t.Errorf("AtClamped = %v", got)
	}
	g := NewGray(3, 3)
	g.Set(2, 2, 77)
	if got := g.AtClamped(10, 10); got != 77 {
		t.Errorf("gray AtClamped = %d", got)
	}
}

func TestGrayRoundTrip(t *testing.T) {
	m := NewImage(5, 5)
	m.Fill(RGB{100, 100, 100})
	g := m.ToGray()
	if g.At(2, 2) != 100 {
		t.Errorf("gray of uniform 100 = %d", g.At(2, 2))
	}
	back := g.ToImage()
	if back.At(2, 2) != (RGB{100, 100, 100}) {
		t.Errorf("round trip = %v", back.At(2, 2))
	}
}

func TestFloatGrayRoundTrip(t *testing.T) {
	g := NewGray(4, 4)
	g.Set(1, 1, 200)
	f := g.ToFloat()
	if f.At(1, 1) != 200 {
		t.Errorf("ToFloat = %v", f.At(1, 1))
	}
	f.Set(0, 0, 300) // clamps on conversion
	f.Set(0, 1, -5)
	back := f.ToGray()
	if back.At(0, 0) != 255 || back.At(0, 1) != 0 {
		t.Errorf("clamping failed: %d %d", back.At(0, 0), back.At(0, 1))
	}
}

func TestResizeNearestExact(t *testing.T) {
	m := NewImage(2, 2)
	m.Set(0, 0, RGB{10, 0, 0})
	m.Set(1, 0, RGB{20, 0, 0})
	m.Set(0, 1, RGB{30, 0, 0})
	m.Set(1, 1, RGB{40, 0, 0})
	up := m.ResizeNearest(4, 4)
	if up.At(0, 0).R != 10 || up.At(3, 3).R != 40 || up.At(3, 0).R != 20 {
		t.Errorf("nearest upsample wrong: %v %v %v", up.At(0, 0), up.At(3, 3), up.At(3, 0))
	}
}

func TestResizeBilinearUniformInvariant(t *testing.T) {
	m := NewImageFilled(7, 5, RGB{42, 77, 129})
	out := m.ResizeBilinear(13, 9)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			if out.At(x, y) != (RGB{42, 77, 129}) {
				t.Fatalf("uniform image changed at %d,%d: %v", x, y, out.At(x, y))
			}
		}
	}
}

func TestResizeGray(t *testing.T) {
	g := NewGray(4, 4)
	for i := range g.Pix {
		g.Pix[i] = uint8(i * 16)
	}
	down := g.ResizeBilinear(2, 2)
	if down.W != 2 || down.H != 2 {
		t.Fatalf("size = %dx%d", down.W, down.H)
	}
	nn := g.ResizeNearest(8, 8)
	if nn.W != 8 || nn.H != 8 {
		t.Fatalf("nn size = %dx%d", nn.W, nn.H)
	}
}

func TestDownsample2(t *testing.T) {
	f := NewFloatGray(5, 5)
	f.Set(2, 2, 7)
	d := f.Downsample2()
	if d.W != 2 || d.H != 2 {
		t.Fatalf("downsample size = %dx%d", d.W, d.H)
	}
	if d.At(1, 1) != 7 {
		t.Errorf("downsample value = %v", d.At(1, 1))
	}
}

func TestFlipsAndRotations(t *testing.T) {
	m := NewImage(3, 2)
	m.Set(0, 0, RGB{1, 0, 0})
	m.Set(2, 1, RGB{2, 0, 0})

	fh := m.FlipH()
	if fh.At(2, 0).R != 1 || fh.At(0, 1).R != 2 {
		t.Error("FlipH wrong")
	}
	fv := m.FlipV()
	if fv.At(0, 1).R != 1 || fv.At(2, 0).R != 2 {
		t.Error("FlipV wrong")
	}
	r90 := m.Rotate90()
	if r90.W != 2 || r90.H != 3 {
		t.Fatalf("Rotate90 size = %dx%d", r90.W, r90.H)
	}
	if r90.At(1, 0).R != 1 {
		t.Error("Rotate90 wrong")
	}
	r180 := m.Rotate180()
	if r180.At(2, 1).R != 1 || r180.At(0, 0).R != 2 {
		t.Error("Rotate180 wrong")
	}
	r270 := m.Rotate270()
	if r270.At(0, 2).R != 1 {
		t.Error("Rotate270 wrong")
	}
	// Four quarter turns are the identity.
	id := m.Rotate90().Rotate90().Rotate90().Rotate90()
	for i := range m.Pix {
		if id.Pix[i] != m.Pix[i] {
			t.Fatal("four Rotate90s != identity")
		}
	}
}

func TestWarpAffineIdentity(t *testing.T) {
	m := NewImage(6, 6)
	m.Set(2, 3, RGB{200, 10, 10})
	out := m.WarpAffine(geom.Identity(), 6, 6, Black)
	for i := range m.Pix {
		if out.Pix[i] != m.Pix[i] {
			t.Fatal("identity warp changed image")
		}
	}
}

func TestWarpAffineTranslate(t *testing.T) {
	m := NewImage(6, 6)
	m.Set(1, 1, RGB{200, 10, 10})
	out := m.WarpAffine(geom.Translation(2, 3), 6, 6, Black)
	if out.At(3, 4).R != 200 {
		t.Errorf("translated pixel = %v", out.At(3, 4))
	}
	if out.At(1, 1).R != 0 {
		t.Errorf("source pixel not cleared: %v", out.At(1, 1))
	}
}

func TestRotateAboutPreservesCentre(t *testing.T) {
	m := NewImageFilled(9, 9, Black)
	m.Set(4, 4, White)
	out := m.RotateAbout(math.Pi/3, Black)
	if out.At(4, 4) != White {
		t.Errorf("centre pixel = %v", out.At(4, 4))
	}
}

func TestPadTo(t *testing.T) {
	m := NewImageFilled(2, 2, White)
	out := m.PadTo(6, 6, Black)
	if out.At(0, 0) != Black {
		t.Error("padding not background")
	}
	if out.At(2, 2) != White {
		t.Error("content not centred")
	}
	// Shrinking crops centrally.
	big := NewImageFilled(10, 10, White)
	big.Set(0, 0, Black)
	small := big.PadTo(4, 4, Black)
	if small.W != 4 || small.At(1, 1) != White {
		t.Error("central crop wrong")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.png")
	m := NewImage(8, 5)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			m.Set(x, y, RGB{uint8(x * 30), uint8(y * 50), 7})
		}
	}
	if err := m.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPNG(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != m.W || back.H != m.H {
		t.Fatalf("size = %dx%d", back.W, back.H)
	}
	for i := range m.Pix {
		if back.Pix[i] != m.Pix[i] {
			t.Fatal("PNG round trip not lossless")
		}
	}
}

// genericFromStdImage is FromStdImage's per-pixel color path, the
// reference its *image.RGBA fast path must reproduce byte for byte.
func genericFromStdImage(src image.Image) *Image {
	b := src.Bounds()
	out := NewImage(b.Dx(), b.Dy())
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(x, y, RGB{uint8(r >> 8), uint8(g >> 8), uint8(bl >> 8)})
		}
	}
	return out
}

// TestFromStdImageMatchesGeneric covers the *image.RGBA fast path —
// random pixels with alpha below 255, and a sub-image whose bounds do
// not start at the origin — and the types that take the generic path.
func TestFromStdImageMatchesGeneric(t *testing.T) {
	s := uint32(17)
	next := func() uint8 {
		s = s*1664525 + 1013904223
		return uint8(s >> 24)
	}
	rgba := image.NewRGBA(image.Rect(-3, 2, 30, 21))
	for i := range rgba.Pix {
		rgba.Pix[i] = next()
	}
	nrgba := image.NewNRGBA(image.Rect(0, 0, 13, 7))
	for i := range nrgba.Pix {
		nrgba.Pix[i] = next()
	}
	gray := image.NewGray(image.Rect(1, 1, 12, 9))
	for i := range gray.Pix {
		gray.Pix[i] = next()
	}
	pal := image.NewPaletted(image.Rect(0, 0, 9, 11), palette.Plan9)
	for i := range pal.Pix {
		pal.Pix[i] = next()
	}
	cases := []struct {
		name string
		img  image.Image
	}{
		{"RGBA", rgba},
		{"RGBA sub-image", rgba.SubImage(image.Rect(4, 7, 25, 19))},
		{"NRGBA", nrgba},
		{"Gray", gray},
		{"Paletted", pal},
	}
	for _, c := range cases {
		want, got := genericFromStdImage(c.img), FromStdImage(c.img)
		if got.W != want.W || got.H != want.H {
			t.Fatalf("%s: size %dx%d, want %dx%d", c.name, got.W, got.H, want.W, want.H)
		}
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%s: byte %d = %d, want %d", c.name, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

func TestLoadPNGMissing(t *testing.T) {
	if _, err := LoadPNG(filepath.Join(t.TempDir(), "nope.png")); err == nil {
		t.Error("missing file did not error")
	}
}

func TestMeanRGB(t *testing.T) {
	m := NewImage(2, 1)
	m.Set(0, 0, RGB{0, 100, 200})
	m.Set(1, 0, RGB{100, 100, 0})
	r, g, b := m.MeanRGB()
	if r != 50 || g != 100 || b != 100 {
		t.Errorf("MeanRGB = %v %v %v", r, g, b)
	}
}

func TestCropPropertyContained(t *testing.T) {
	f := func(w, h, x0, y0, x1, y1 uint8) bool {
		mw, mh := int(w%20)+1, int(h%20)+1
		m := NewImage(mw, mh)
		r := geom.R(int(x0)%25-2, int(y0)%25-2, int(x1)%25-2, int(y1)%25-2)
		c := m.Crop(r)
		if c == nil {
			return r.ClampTo(mw, mh).Empty()
		}
		rc := r.ClampTo(mw, mh)
		return c.W == rc.W() && c.H == rc.H()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewImagePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewImage(0, 5) did not panic")
		}
	}()
	NewImage(0, 5)
}

package hdhog

import (
	"fmt"
	"math"
	"testing"

	"hdface/internal/hog"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/stoch"
)

func newTestExtractor(d int, seed uint64) *Extractor {
	return New(stoch.NewCodec(d, seed), DefaultParams())
}

// pixel fetches the pixel value v into a fresh vector.
func (e *Extractor) pixel(v float64) *hv.Vector { return e.pixelInto(hv.New(e.codec.D()), v) }

func TestDefaultsFilled(t *testing.T) {
	e := New(stoch.NewCodec(1024, 1), Params{})
	if e.P.CellSize != 8 || e.P.Bins != 9 || e.P.PixelLevels != 256 {
		t.Fatalf("defaults not applied: %+v", e.P)
	}
	if len(e.lows)+len(e.highs) != 8 {
		t.Fatalf("expected 8 boundaries, got %d + %d", len(e.lows), len(e.highs))
	}
	if e.midBin != 4 {
		t.Fatalf("midBin = %d, want 4", e.midBin)
	}
}

func TestBoundaryConstantsInRange(t *testing.T) {
	e := newTestExtractor(1024, 2)
	for _, bs := range [][]boundary{e.lows, e.highs} {
		for _, b := range bs {
			if b.mag <= 0 || b.mag > 1 {
				t.Fatalf("boundary magnitude %v outside (0,1]", b.mag)
			}
			want := math.Abs(math.Tan(b.theta))
			if b.reciprocal {
				want = 1 / want
			}
			if math.Abs(b.mag-want) > 1e-12 {
				t.Fatalf("boundary %v: mag %v, want %v", b.theta, b.mag, want)
			}
		}
	}
}

func TestPixelDecodesToValue(t *testing.T) {
	// Pixels in [0, 1] map onto the full [-1, 1] hypervector value range.
	e := newTestExtractor(8192, 3)
	for _, v := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got := e.codec.Decode(e.pixel(v))
		if want := 2*v - 1; math.Abs(got-want) > 0.05 {
			t.Errorf("pixel(%v) decodes to %v, want %v", v, got, want)
		}
	}
	// Out-of-range values clamp.
	if got := e.codec.Decode(e.pixel(2)); math.Abs(got-1) > 0.05 {
		t.Errorf("pixel(2) = %v, want ~1", got)
	}
}

func TestExtremeColoursNearOrthogonal(t *testing.T) {
	// Paper Figure 1a: the black and white base hypervectors are nearly
	// orthogonal, mid-gray sits halfway to both.
	e := newTestExtractor(8192, 31)
	black, white := e.pixel(0), e.pixel(1)
	if cos := black.Cos(white); cos > -0.9 {
		t.Fatalf("black/white cos %v; signed extremes should be near opposite", cos)
	}
	mid := e.pixel(0.5)
	if c := mid.Cos(white); math.Abs(c) > 0.06 {
		t.Fatalf("mid-gray vs white cos %v, want ~0", c)
	}
}

func TestPixelFetchesAreDecorrelated(t *testing.T) {
	e := newTestExtractor(8192, 4)
	a := e.pixel(0.5)
	b := e.pixel(0.5)
	if a.Equal(b) {
		t.Fatal("two fetches returned identical bits")
	}
	// Same decoded value.
	if e.codec.Decode(a) != e.codec.Decode(b) {
		t.Fatal("decorrelated fetches decode differently")
	}
}

func TestGradientHVValues(t *testing.T) {
	e := newTestExtractor(8192, 5)
	img := imgproc.NewImage(8, 8)
	img.GradientFill(0, 0, 7, 0, 0, 255) // horizontal ramp
	gxv, gyv := e.GradientHV(img, 4, 4)
	wantGx, wantGy := hog.Gradient(img, 4, 4)
	// Hyperspace gradients are twice the [0,1]-normalised classical ones.
	if got := e.codec.Decode(gxv); math.Abs(got-2*wantGx) > 0.06 {
		t.Fatalf("gx decodes to %v, want %v", got, 2*wantGx)
	}
	if got := e.codec.Decode(gyv); math.Abs(got-2*wantGy) > 0.06 {
		t.Fatalf("gy decodes to %v, want %v", got, 2*wantGy)
	}
}

func TestMagnitudeHV(t *testing.T) {
	e := newTestExtractor(16384, 6)
	c := e.codec
	cases := [][2]float64{{0.5, 0}, {0.3, 0.4}, {0, 0.5}, {-0.4, 0.3}}
	for _, tc := range cases {
		gx, gy := c.Construct(tc[0]), c.Construct(tc[1])
		got := c.Decode(e.MagnitudeHV(gx, gy))
		want := math.Sqrt((tc[0]*tc[0] + tc[1]*tc[1]) / 2)
		if math.Abs(got-want) > 0.12 {
			t.Errorf("magnitude(%v, %v) = %v, want %v", tc[0], tc[1], got, want)
		}
	}
}

// binOfFloat computes the reference orientation bin from float gradients.
func binOfFloat(gx, gy float64, bins int) int {
	theta := math.Atan2(gy, gx)
	if theta < 0 {
		theta += math.Pi
	}
	if theta >= math.Pi {
		theta -= math.Pi
	}
	b := int(theta / (math.Pi / float64(bins)))
	if b >= bins {
		b = bins - 1
	}
	return b
}

func TestBinOfMatchesFloatReference(t *testing.T) {
	e := newTestExtractor(16384, 7)
	c := e.codec
	// Angles chosen away from bin boundaries so statistical noise cannot
	// flip the comparison.
	for _, deg := range []float64{10, 30, 50, 70, 85, 95, 115, 135, 155, 175} {
		theta := deg * math.Pi / 180
		gx := 0.4 * math.Cos(theta)
		gy := 0.4 * math.Sin(theta)
		want := binOfFloat(gx, gy, 9)
		got := e.BinOf(c.Construct(gx), c.Construct(gy))
		if got != want {
			t.Errorf("theta=%v deg: bin %d, want %d", deg, got, want)
		}
	}
}

func TestBinOfVerticalGradient(t *testing.T) {
	e := newTestExtractor(8192, 8)
	c := e.codec
	// gx ~ 0: must land in the bin containing pi/2.
	got := e.BinOf(c.Construct(0), c.Construct(0.5))
	if got != 4 {
		t.Fatalf("vertical gradient bin %d, want 4", got)
	}
}

func TestCellHistogramParityWithClassicalHOG(t *testing.T) {
	// On a strong-edge image the decoded hyperspace histogram must put its
	// mass in the same bin as the classical hard-binned HOG.
	e := New(stoch.NewCodec(8192, 9), Params{Stride: 1}) // per-pixel parity
	img := imgproc.NewImage(8, 8)
	img.FillRect(4, 0, 8, 8, 255) // vertical edge -> bin 0

	hd := e.DecodedHistograms(img)
	classical := hog.New(hog.HardParams()).CellHistograms(img)
	if len(hd) != 1 || len(classical) != 1 {
		t.Fatalf("expected single cell, got %d / %d", len(hd), len(classical))
	}
	argmax := func(xs []float64) int {
		best := 0
		for i, v := range xs {
			if v > xs[best] {
				best = i
			}
			_ = v
		}
		return best
	}
	if got, want := argmax(hd[0]), argmax(classical[0]); got != want {
		t.Fatalf("dominant bin %d, want %d (hd=%v)", got, want, hd[0])
	}
	// Scale relation: the hyperspace magnitude is sqrt(2)*|G_classical|
	// (2x gradients, /sqrt(2) from the paper's scaled magnitude), so the
	// decoded bin is sqrt(2)/sites times the classical sum.
	want := classical[0][0] * math.Sqrt2 / 64
	if got := hd[0][0]; math.Abs(got-want)/want > 0.45 {
		t.Fatalf("magnitude scale off: decoded = %v, want %v", got, want)
	}
}

func TestFeatureSelfSimilarity(t *testing.T) {
	// Two independent stochastic extractions of the same image must agree
	// far more than extractions of different images.
	e := newTestExtractor(4096, 10)
	r := hv.NewRNG(3)
	img1 := imgproc.NewImage(16, 16)
	for i := range img1.Pix {
		img1.Pix[i] = uint8(r.Intn(256))
	}
	img2 := imgproc.NewImage(16, 16)
	img2.GradientFill(0, 0, 15, 15, 0, 255)

	f1a := e.Feature(img1)
	f1b := e.Feature(img1)
	f2 := e.Feature(img2)
	same := f1a.Cos(f1b)
	diff := f1a.Cos(f2)
	if same <= diff {
		t.Fatalf("self-similarity %v not above cross-similarity %v", same, diff)
	}
	// Two independent representations of the same value v agree with
	// cosine v^2, so self-similarity is far from 1 — but it must clearly
	// beat the D-dimensional sampling noise floor.
	if same < 4/math.Sqrt(4096) {
		t.Fatalf("self-similarity %v below noise floor", same)
	}
}

func TestFeatureDimension(t *testing.T) {
	e := newTestExtractor(2048, 11)
	img := imgproc.NewImage(16, 16)
	f := e.Feature(img)
	if f.D() != 2048 {
		t.Fatalf("feature dimension %d", f.D())
	}
}

func TestForkInteroperability(t *testing.T) {
	e := newTestExtractor(4096, 12)
	e.WarmIDs(16, 16)
	f := e.Fork()
	img := imgproc.NewImage(16, 16)
	img.GradientFill(0, 0, 15, 15, 0, 255)
	other := imgproc.NewImage(16, 16)
	other.FillRect(0, 8, 16, 16, 255)
	a := e.Feature(img)
	b := f.Feature(img)
	c := f.Feature(other)
	if a.Cos(b) <= a.Cos(c) {
		t.Fatalf("fork same-image similarity %v not above cross-image %v", a.Cos(b), a.Cos(c))
	}
}

func TestWarmIDsPrecreates(t *testing.T) {
	e := newTestExtractor(1024, 13)
	e.WarmIDs(16, 16)
	n := len(e.ids)
	if n != 4*9 {
		t.Fatalf("WarmIDs created %d ids, want 36", n)
	}
	img := imgproc.NewImage(16, 16)
	e.Feature(img)
	if len(e.ids) != n {
		t.Fatal("Feature created ids after warm-up")
	}
}

func TestPixelsCounter(t *testing.T) {
	e := newTestExtractor(1024, 14)
	img := imgproc.NewImage(8, 8)
	img.GradientFill(0, 0, 7, 7, 0, 255)
	e.Feature(img)
	// Default stride 3 on an 8x8 cell: sites at {1,4,7}^2 = 9.
	if e.Pixels != 9 {
		t.Fatalf("Pixels = %d, want 9", e.Pixels)
	}
	if e.SitesPerCell() != 9 {
		t.Fatalf("SitesPerCell = %d, want 9", e.SitesPerCell())
	}
}

func TestStrideOneCountsAllPixels(t *testing.T) {
	e := New(stoch.NewCodec(512, 21), Params{Stride: 1})
	img := imgproc.NewImage(8, 8)
	e.Feature(img)
	if e.Pixels != 64 {
		t.Fatalf("Pixels = %d, want 64", e.Pixels)
	}
}

func TestStatsFlowThroughCodec(t *testing.T) {
	e := newTestExtractor(1024, 15)
	before := e.codec.Stats
	img := imgproc.NewImage(8, 8)
	img.GradientFill(0, 0, 7, 0, 0, 255)
	e.Feature(img)
	if e.codec.Stats.Averages == before.Averages {
		t.Fatal("feature extraction did not count averages")
	}
	if e.codec.Stats.Sqrts == before.Sqrts {
		t.Fatal("feature extraction did not count square roots")
	}
}

func BenchmarkFeature16x16D1k(b *testing.B) {
	e := New(stoch.NewCodec(1024, 1), DefaultParams())
	img := imgproc.NewImage(16, 16)
	img.GradientFill(0, 0, 15, 15, 0, 255)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Feature(img)
	}
}

func BenchmarkFeature16x16D4k(b *testing.B) {
	e := New(stoch.NewCodec(4096, 1), DefaultParams())
	img := imgproc.NewImage(16, 16)
	img.GradientFill(0, 0, 15, 15, 0, 255)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Feature(img)
	}
}

func TestMagnitudeL1(t *testing.T) {
	e := New(stoch.NewCodec(16384, 41), Params{MagnitudeL1: true})
	c := e.codec
	cases := [][2]float64{{0.5, 0}, {0.3, 0.4}, {-0.4, 0.3}}
	for _, tc := range cases {
		gx, gy := c.Construct(tc[0]), c.Construct(tc[1])
		got := c.Decode(e.MagnitudeHV(gx, gy))
		want := (math.Abs(tc[0]) + math.Abs(tc[1])) / 2
		if math.Abs(got-want) > 0.08 {
			t.Errorf("L1 magnitude(%v, %v) = %v, want %v", tc[0], tc[1], got, want)
		}
	}
}

func TestMagnitudeL1CheaperThanL2(t *testing.T) {
	img := imgproc.NewImage(16, 16)
	img.GradientFill(0, 0, 15, 15, 0, 255)
	l2 := New(stoch.NewCodec(1024, 42), Params{})
	l2.Feature(img)
	l1 := New(stoch.NewCodec(1024, 42), Params{MagnitudeL1: true})
	l1.Feature(img)
	if l1.codec.Stats.Sqrts >= l2.codec.Stats.Sqrts {
		t.Fatal("L1 magnitude still runs square roots")
	}
	if l1.codec.Stats.TotalWords() >= l2.codec.Stats.TotalWords() {
		t.Fatalf("L1 (%d words) not cheaper than L2 (%d words)",
			l1.codec.Stats.TotalWords(), l2.codec.Stats.TotalWords())
	}
}

func TestBindBundleOption(t *testing.T) {
	img := imgproc.NewImage(16, 16)
	img.GradientFill(0, 0, 15, 15, 0, 255)
	e := New(stoch.NewCodec(2048, 43), Params{BindBundle: true})
	f := e.Feature(img)
	if f.D() != 2048 {
		t.Fatal("bind-bundle feature dimension wrong")
	}
}

// TestGoldenFeatureBits pins the exact feature bits for a fixed seed and
// image, guarding the whole stochastic pipeline (RNG streams, mask
// generation, search order) against silent behavioural drift. Update the
// constant only for an intentional algorithm change.
func TestGoldenFeatureBits(t *testing.T) {
	e := New(stoch.NewCodec(256, 12345), Params{})
	img := imgproc.NewImage(16, 16)
	img.GradientFill(0, 0, 15, 15, 0, 255)
	f := e.Feature(img)
	got := fmt.Sprintf("%016x%016x", f.Words()[0], f.Words()[1])
	// Re-pinned when positional IDs moved from RNG-stream draws to pure
	// (idBase, cell, bin) rematerialization hashes — an intentional
	// representation change (the IDs are different, equally random bits).
	const want = "72ae42b5089de41c41d4e0cd349dfa1e"
	if got != want {
		t.Fatalf("feature bits drifted:\n got %s\nwant %s", got, want)
	}
}

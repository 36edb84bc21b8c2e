package hdhog

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"hdface/internal/hv"
	"hdface/internal/stoch"
)

// goldenHash folds words into a running FNV-1a digest.
type goldenHash struct{ h hash.Hash64 }

func (g goldenHash) u64(x uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(x >> (8 * i))
	}
	g.h.Write(b[:])
}

func (g goldenHash) vec(v *hv.Vector) {
	if v == nil {
		g.u64(0xdead)
		return
	}
	for _, w := range v.Words() {
		g.u64(w)
	}
}

func (g goldenHash) cells(cells []CellBins) {
	for _, cb := range cells {
		for b, v := range cb.Vecs {
			g.u64(uint64(cb.Counts[b]))
			g.vec(v)
		}
	}
}

// TestGoldenLevelGridBits pins every output bit of the hyperspace HOG
// pipeline: each cell hypervector, vote count and cached bundle weight of a
// two-worker LevelGrid, the cell histograms and feature of a direct
// extraction, and the exact codec operation counts afterwards. D = 1000 is
// not a multiple of 64, so the pin also covers the partial final word of
// every rotation. Any change to RNG draw order, mask generation, search
// order or counter bookkeeping moves a digest; update the constants only
// for an intentional algorithm change.
func TestGoldenLevelGridBits(t *testing.T) {
	cases := []struct {
		d     int
		l1    bool
		grid  uint64
		cells uint64
		feat  uint64
		stats string
	}{
		{2048, false, 0xb0585f3add898f41, 0x863cfc8722f41f70, 0xe45ee181355fdb81,
			"{Constructs:536 Averages:2874 Muls:1823 Sqrts:250 Divs:0 Compares:713 Decodes:2246 Decorrs:2831 " +
				"XorWords:379616 SelectWords:91968 MaskWords:109120 PopWords:71872 PermWords:90592} pixels=252"},
		{1000, false, 0x100ec5f5c9fe7d6b, 0xe7da1c628dd14827, 0xd605921906056d6c,
			"{Constructs:539 Averages:2589 Muls:1653 Sqrts:249 Divs:0 Compares:592 Decodes:2079 Decorrs:2661 " +
				"XorWords:176080 SelectWords:41424 MaskWords:50048 PopWords:33264 PermWords:42576} pixels=252"},
		{1000, true, 0xb54a21e11ceb98a, 0xd1839d6ed1726d4a, 0x9920fbf60c81d938,
			"{Constructs:289 Averages:1407 Muls:569 Sqrts:0 Divs:0 Compares:0 Decodes:1993 Decorrs:1577 " +
				"XorWords:96416 SelectWords:22512 MaskWords:27136 PopWords:31888 PermWords:25232} pixels=252"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("D%d_l1=%v", tc.d, tc.l1), func(t *testing.T) {
			e := New(stoch.NewCodec(tc.d, 777), Params{MagnitudeL1: tc.l1})
			img := textured(40, 32, 11)
			g := e.LevelGrid(img, 2024, 2)

			gh := goldenHash{fnv.New64a()}
			gh.u64(uint64(g.CW))
			gh.u64(uint64(g.CH))
			gh.cells(g.Cells)
			for _, w := range g.weights {
				gh.u64(uint64(uint32(w)))
			}
			gridSum := gh.h.Sum64()

			win := img.Crop(4, 4, 16, 16)
			ch := goldenHash{fnv.New64a()}
			ch.cells(e.CellHistogramHVs(win))
			cellSum := ch.h.Sum64()

			fh := goldenHash{fnv.New64a()}
			fh.vec(e.Feature(win))
			featSum := fh.h.Sum64()

			stats := fmt.Sprintf("%+v pixels=%d", e.codec.Stats, e.Pixels)
			if gridSum != tc.grid || cellSum != tc.cells || featSum != tc.feat || stats != tc.stats {
				t.Fatalf("pipeline output drifted:\n got  grid %#x cells %#x feature %#x\n      %s\n want grid %#x cells %#x feature %#x\n      %s",
					gridSum, cellSum, featSum, stats, tc.grid, tc.cells, tc.feat, tc.stats)
			}
		})
	}
}

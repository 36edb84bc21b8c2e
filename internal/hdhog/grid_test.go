package hdhog

import (
	"math"
	"testing"

	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/stoch"
)

// textured returns a deterministic w x h test image with non-trivial
// gradients everywhere.
func textured(w, h int, seed uint64) *imgproc.Image {
	img := imgproc.NewImage(w, h)
	r := hv.NewRNG(seed)
	for i := range img.Pix {
		img.Pix[i] = uint8(r.Intn(256))
	}
	return img
}

func TestLevelGridDeterministicAcrossWorkers(t *testing.T) {
	img := textured(64, 48, 5)
	var grids []*CellGrid
	for _, workers := range []int{1, 3, 8} {
		e := newTestExtractor(1024, 42)
		grids = append(grids, e.LevelGrid(img, 99, workers))
	}
	ref := grids[0]
	if ref.CW != 8 || ref.CH != 6 {
		t.Fatalf("grid extent %dx%d, want 8x6", ref.CW, ref.CH)
	}
	for gi, g := range grids[1:] {
		if g.CW != ref.CW || g.CH != ref.CH {
			t.Fatalf("grid %d extent mismatch", gi+1)
		}
		for i := range ref.weights {
			if g.weights[i] != ref.weights[i] {
				t.Fatalf("grid %d weight %d differs: %d vs %d", gi+1, i, g.weights[i], ref.weights[i])
			}
		}
		for c := range ref.Cells {
			for b := 0; b < ref.bins; b++ {
				rv, gv := ref.Cells[c].Vecs[b], g.Cells[c].Vecs[b]
				if (rv == nil) != (gv == nil) {
					t.Fatalf("grid %d cell %d bin %d emptiness differs", gi+1, c, b)
				}
				if rv != nil && !rv.Equal(gv) {
					t.Fatalf("grid %d cell %d bin %d hypervector differs", gi+1, c, b)
				}
				if ref.Cells[c].Counts[b] != g.Cells[c].Counts[b] {
					t.Fatalf("grid %d cell %d bin %d count differs", gi+1, c, b)
				}
			}
		}
	}
}

func TestLevelGridFoldsWorkCounters(t *testing.T) {
	img := textured(32, 32, 6)
	serial := newTestExtractor(512, 7)
	serial.LevelGrid(img, 1, 1)
	parallel := newTestExtractor(512, 7)
	parallel.LevelGrid(img, 1, 4)
	if serial.Pixels == 0 {
		t.Fatal("grid extraction counted no gradient sites")
	}
	if serial.Pixels != parallel.Pixels {
		t.Fatalf("worker forks lost site counts: %d vs %d", parallel.Pixels, serial.Pixels)
	}
}

// TestWindowFeatureMatchesFeature checks the statistical-equivalence claim
// the cell-grid engine rests on: a window assembled from cached cell
// hypervectors is as similar to a direct Feature extraction as two
// independent Feature extractions are to each other — the grid adds no
// systematic error, only the sampling noise HDC tolerates by construction.
func TestWindowFeatureMatchesFeature(t *testing.T) {
	img := textured(48, 48, 9)
	e := newTestExtractor(4096, 21)
	f1 := e.Feature(img)
	f2 := e.Feature(img)
	base := f1.Cos(f2) // independent re-extraction similarity

	g := e.LevelGrid(img, 77, 2)
	fg := e.WindowFeature(g, 0, 0, 6)
	if fg.D() != 4096 {
		t.Fatalf("grid feature dimension %d", fg.D())
	}
	sim := fg.Cos(f1)
	if sim < base/2 {
		t.Fatalf("grid feature similarity %v far below re-extraction baseline %v", sim, base)
	}
	if sim < 4/math.Sqrt(4096) {
		t.Fatalf("grid feature similarity %v below noise floor", sim)
	}
	// And it must discriminate: a different window's grid feature is less
	// similar than the same window's direct extraction.
	other := textured(48, 48, 10)
	fo := e.Feature(other)
	if cross := fg.Cos(fo); cross >= sim {
		t.Fatalf("grid feature does not discriminate: same %v vs cross %v", sim, cross)
	}
}

func TestWindowFeatureDeterministicAfterReseed(t *testing.T) {
	img := textured(64, 64, 11)
	e := newTestExtractor(1024, 13)
	// Reseed determinism holds once the positional IDs exist (the sweep
	// warms them before forking); lazy creation would consume the stream.
	e.WarmIDs(48, 48)
	g := e.LevelGrid(img, 5, 2)
	e.Reseed(123)
	a := e.WindowFeature(g, 1, 1, 6)
	e.Reseed(123)
	b := e.WindowFeature(g, 1, 1, 6)
	if !a.Equal(b) {
		t.Fatal("reseeded WindowFeature is not reproducible")
	}
	// Tie-break perturbation needs dimensions that actually tie; a flat
	// image yields zero weights everywhere, so every dimension ties and the
	// window feature IS the tie vector — guaranteed to move with the seed.
	flat := imgproc.NewImage(64, 64)
	fg := e.LevelGrid(flat, 5, 1)
	e.Reseed(123)
	c := e.WindowFeature(fg, 1, 1, 6)
	e.Reseed(124)
	d := e.WindowFeature(fg, 1, 1, 6)
	if c.Equal(d) {
		t.Fatal("different seeds should perturb the tie-break stream")
	}
}

func TestWindowFeatureBindBundlePath(t *testing.T) {
	img := textured(48, 48, 14)
	codec := stoch.NewCodec(512, 15)
	p := DefaultParams()
	p.BindBundle = true
	e := New(codec, p)
	g := e.LevelGrid(img, 3, 1)
	f := e.WindowFeature(g, 0, 0, 6)
	if f.D() != 512 {
		t.Fatalf("bind-bundle grid feature dimension %d", f.D())
	}
}

func TestWindowFeaturePanicsOutsideGrid(t *testing.T) {
	img := textured(48, 48, 16)
	e := newTestExtractor(512, 17)
	g := e.LevelGrid(img, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-grid window did not panic")
		}
	}()
	e.WindowFeature(g, 2, 2, 6) // 2+6 > 6 cells
}

// TestExtractionAllocatesOnlyRetainedStorage pins the arena contract: once
// an extractor is warm, CellHistogramHVs allocates only the storage it
// returns (the CellBins slice, one vector slab, one Vecs and one Counts
// array) whatever the cell count, and LevelGrid adds a fixed few
// allocations per cell row instead of several per cell.
func TestExtractionAllocatesOnlyRetainedStorage(t *testing.T) {
	for _, l1 := range []bool{false, true} {
		e := New(stoch.NewCodec(1000, 8), Params{MagnitudeL1: l1})
		for _, size := range []int{16, 40} {
			img := textured(size, size, 12)
			e.CellHistogramHVs(img)
			if n := testing.AllocsPerRun(3, func() { e.CellHistogramHVs(img) }); n != 5 {
				t.Errorf("l1=%v %dx%d: CellHistogramHVs allocates %v times, want 5", l1, size, size, n)
			}
		}
		img := textured(64, 48, 13)
		e.LevelGrid(img, 1, 1)
		rows := float64(img.H / e.P.CellSize)
		n := testing.AllocsPerRun(3, func() { e.LevelGrid(img, 1, 1) })
		if n > 12+2*rows {
			t.Errorf("l1=%v: LevelGrid allocates %v times for %v rows, want <= %v", l1, n, rows, 12+2*rows)
		}
	}
}

package hdhog

import (
	"fmt"
	"math/bits"
	"sync"

	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/obs"
)

// CellGrid caches the hyperspace HOG cell histograms of one pyramid level.
// With the default half-window stride every 8x8 cell is shared by up to
// four windows, so extracting the grid once and assembling window features
// from it removes the ~4x redundant gradient/magnitude/binning work the
// per-window path pays — the rematerialisation-avoidance optimisation the
// HDC hardware literature calls out. Bundle weights (vote count times the
// decoded mean magnitude, the classical side information of Feature) are
// decoded once per (cell, bin) at build time and cached, already quantised
// to the integer scale Feature uses.
//
// A CellGrid is immutable after LevelGrid returns and may be shared by any
// number of goroutines.
type CellGrid struct {
	CW, CH int        // grid extent in cells
	Cells  []CellBins // row-major cell histograms (nil vecs in empty bins)
	bins   int
	// weights holds the pre-quantised bundle weight of every (cell, bin):
	// round(count * max(decode(vec), 0) * weightScale), exactly the integer
	// Feature would compute per window.
	weights []int32
}

// LevelGrid extracts the full cell grid of a level image with up to
// workers goroutines, one fork of the extractor per worker. Every cell row
// is a pure function of (seed, row index): the row's extractor reseeds
// before extracting, so the grid is bit-identical for any worker count and
// any goroutine schedule. Work counters of the forks are folded back into
// e before returning.
//
// Storage is per row, not per cell: a row's bin means are extracted into
// the extractor's arena, then its non-empty bins are copied into one
// exact-size vector slab. The Vecs and Counts of all cells share two
// grid-wide arrays.
func (e *Extractor) LevelGrid(img *imgproc.Image, seed uint64, workers int) *CellGrid {
	cs, bins := e.P.CellSize, e.P.Bins
	cw, ch := img.W/cs, img.H/cs
	g := &CellGrid{
		CW:      cw,
		CH:      ch,
		bins:    bins,
		Cells:   make([]CellBins, cw*ch),
		weights: make([]int32, cw*ch*bins),
	}
	if ch == 0 || cw == 0 {
		return g
	}
	sp := obs.StartSpan("level_grid")
	defer sp.End()
	sp.AddItems(int64(cw * ch))
	if workers > ch {
		workers = ch
	}
	if workers < 1 {
		workers = 1
	}
	// Forks are created serially, before any goroutine starts, because
	// Fork draws from the parent's RNG.
	exts := make([]*Extractor, workers)
	exts[0] = e
	for w := 1; w < workers; w++ {
		exts[w] = e.Fork()
	}
	d, rowBins := e.codec.D(), cw*bins
	vecs := make([]*hv.Vector, cw*ch*bins)
	counts := make([]int, cw*ch*bins)
	for gi := range g.Cells {
		s, t := gi*bins, (gi+1)*bins
		g.Cells[gi] = CellBins{Vecs: vecs[s:t:t], Counts: counts[s:t:t]}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ext := exts[w]
			row := ext.ar.rowBuf(d, rowBins)
			for cy := w; cy < ch; cy += workers {
				ext.Reseed(hv.Mix64(seed, uint64(cy)))
				base := cy * rowBins
				rc := counts[base : base+rowBins]
				for cx := 0; cx < cw; cx++ {
					s, t := cx*bins, (cx+1)*bins
					ext.cellHist(img, cx*cs, cy*cs, row[s:t], rc[s:t], true)
				}
				n := 0
				for _, cnt := range rc {
					if cnt != 0 {
						n++
					}
				}
				slab := hv.NewSlab(d, n)
				for i, cnt := range rc {
					if cnt == 0 {
						continue
					}
					v := &slab[0]
					slab = slab[1:]
					v.CopyFrom(&row[i])
					vecs[base+i] = v
					val := ext.codec.Decode(v)
					if val < 0 {
						val = 0
					}
					g.weights[base+i] = int32(float64(cnt)*val*weightScale + 0.5)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		e.Pixels += exts[w].Pixels
		e.codec.Stats.Add(exts[w].codec.Stats)
	}
	if e.GridHook != nil {
		e.GridHook(g)
		g.reweight(e)
	}
	return g
}

// reweight recomputes every cached bundle weight from the current cell
// hypervectors — required after a GridHook mutates them, since the weights
// were decoded from the pre-corruption vectors during extraction. Decode is
// deterministic (a popcount against the codec's basis), so reweighting does
// not perturb any random stream.
func (g *CellGrid) reweight(e *Extractor) {
	for gi, cb := range g.Cells {
		for b, cnt := range cb.Counts {
			w := int32(0)
			if cnt != 0 && cb.Vecs[b] != nil {
				val := e.codec.Decode(cb.Vecs[b])
				if val < 0 {
					val = 0
				}
				w = int32(float64(cnt)*val*weightScale + 0.5)
			}
			g.weights[gi*g.bins+b] = w
		}
	}
}

// WindowFeature assembles the feature hypervector of the winCells-sized
// square window whose top-left cell is (cx0, cy0), from grid cells cached
// by LevelGrid. It bundles exactly what Feature bundles for the cropped
// window — each (window-local cell, bin) positional ID weighted by the
// cached histogram value — so the result matches a per-window Feature call
// up to stochastic extraction noise (the grid sees the level's real border
// pixels where a crop would clamp, and every hypervector carries fresh
// sampling noise; the classifier is built on exactly that tolerance).
//
// The bundling runs on a dedicated integer kernel: IDs contribute +w on
// set bits and -w on clear bits, which is accumulated as +2w over set bits
// (a sparse popcount-style iteration) with the total weight subtracted once
// at the end. This costs roughly half the generic accumulator path, which
// matters because window assembly is all that remains of per-window cost
// once extraction is amortised into the grid.
func (e *Extractor) WindowFeature(g *CellGrid, cx0, cy0, winCells int) *hv.Vector {
	if g.bins != e.P.Bins {
		panic(fmt.Sprintf("hdhog: grid has %d bins, extractor %d", g.bins, e.P.Bins))
	}
	if cx0 < 0 || cy0 < 0 || winCells <= 0 || cx0+winCells > g.CW || cy0+winCells > g.CH {
		panic(fmt.Sprintf("hdhog: window cells (%d,%d)+%d outside %dx%d grid",
			cx0, cy0, winCells, g.CW, g.CH))
	}
	// No per-window span here: window assembly still belongs to the
	// "encode" stage, but at 650+ windows per level the span bookkeeping
	// itself is measurable and pollutes the alloc profile, so callers
	// sweeping a grid carry one per-level encode span with an item count
	// (see hdface's level scorer) instead.
	d := e.codec.D()
	if e.P.BindBundle {
		return e.windowFeatureBind(g, cx0, cy0, winCells)
	}
	acc := e.scratch
	for i := range acc {
		acc[i] = 0
	}
	var bias int32
	for wy := 0; wy < winCells; wy++ {
		for wx := 0; wx < winCells; wx++ {
			ci := wy*winCells + wx           // window-local ID index
			gi := (cy0+wy)*g.CW + (cx0 + wx) // level-grid cell index
			ws := g.weights[gi*g.bins : (gi+1)*g.bins]
			for b, w := range ws {
				if w == 0 {
					continue
				}
				bias += w
				s2 := 2 * w
				for wi, word := range e.id(ci, b).Words() {
					base := wi * 64
					for x := word; x != 0; x &= x - 1 {
						acc[base+bits.TrailingZeros64(x)] += s2
					}
				}
			}
		}
	}
	tie := e.tieBuf.Rand(e.rng)
	out := hv.New(d)
	for i := 0; i < d; i++ {
		switch c := acc[i] - bias; {
		case c > 0:
			out.SetBit(i, 1)
		case c == 0:
			if tie.Bit(i) > 0 {
				out.SetBit(i, 1)
			}
		}
	}
	return out
}

// windowFeatureBind is the BindBundle ablation path of WindowFeature,
// mirroring Feature's XOR-bind construction over cached grid cells.
func (e *Extractor) windowFeatureBind(g *CellGrid, cx0, cy0, winCells int) *hv.Vector {
	d := e.codec.D()
	acc := hv.NewAccumulator(d)
	bound := hv.New(d)
	for wy := 0; wy < winCells; wy++ {
		for wx := 0; wx < winCells; wx++ {
			ci := wy*winCells + wx
			gi := (cy0+wy)*g.CW + (cx0 + wx)
			cb := g.Cells[gi]
			for b, cnt := range cb.Counts {
				if cnt == 0 {
					continue
				}
				bound.Xor(cb.Vecs[b], e.id(ci, b))
				acc.AddScaled(bound, int32(cnt))
			}
		}
	}
	tie := hv.NewRand(e.rng, d)
	out, _ := acc.Sign(tie)
	return out
}

// Package hdhog implements HDFace's hyperspace HOG (paper Section 4.3):
// the full Histogram-of-Oriented-Gradients pipeline — gradients, gradient
// magnitude, orientation binning and histogram accumulation — executed over
// binary hypervectors with the stochastic arithmetic of package stoch. The
// output of the extractor is itself a hypervector, so it feeds the HDC
// classifier with no separate encoding step.
//
// Per 3x3 pixel neighbourhood the paper's recipe is followed exactly:
//
//  1. Gradient: V_gx, V_gy as scaled stochastic differences of the
//     neighbouring pixel hypervectors (values in [-0.5, 0.5]).
//  2. Magnitude: V_m = sqrt((gx^2 + gy^2)/2) via stochastic square and
//     square root. This is |G|/sqrt(2); the uniform scale does not affect
//     the histogram, as the paper notes.
//  3. Orientation bin: the quadrant comes from the decoded signs of gx and
//     gy; within a quadrant the bin is found by comparing tan(theta) =
//     |gy|/|gx| against precomputed boundary constants tan(theta_i) using
//     the paper's alpha construction — with the reciprocal form when
//     |tan(theta_i)| > 1 so every operand stays inside [-1, 1].
//
// Per-cell, per-bin magnitudes are reduced with a balanced tree of
// stochastic averages; each (cell, bin)'s positional ID atom then joins
// the image-level bundle weighted by the histogram value (vote count times
// the decoded mean magnitude — read out with the same similarity primitive
// the paper's comparison operator is built on), yielding a single feature
// hypervector per image whose pairwise similarities approximate histogram
// dot products. See Feature for the rationale and the BindBundle ablation.
package hdhog

import (
	"math"

	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/obs"
	"hdface/internal/stoch"
)

// Params configures the hyperspace HOG extractor.
type Params struct {
	CellSize    int // pixels per histogram cell side (default 8)
	Bins        int // orientation bins over [0, pi) (default 9)
	PixelLevels int // size of the cached pixel hypervector table (default 256)
	// Stride is the spacing of gradient sites. The paper evaluates one
	// gradient per 3x3 pixel neighbourhood (its "cell of pixels"), i.e.
	// stride 3 (the default). Stride 1 gives per-pixel gradients matching
	// the classical HOG exactly, at 9x the cost.
	Stride int
	// BindBundle selects the pure bind-and-bundle feature construction
	// instead of the value-weighted ID bundle; see Feature. Ablation only.
	BindBundle bool
	// MagnitudeL1 replaces the paper's sqrt((gx^2+gy^2)/2) magnitude with
	// the L1 form (|gx|+|gy|)/2, which needs no stochastic square or
	// square root — the single most expensive part of the pipeline — at
	// the cost of an angle-dependent (up to sqrt(2)) magnitude skew.
	// Ablation only; the default follows the paper.
	MagnitudeL1 bool
}

// DefaultParams mirrors the paper's geometry: 8x8 histogram cells over
// gradients sampled at the centre of each 3x3 neighbourhood.
func DefaultParams() Params { return Params{CellSize: 8, Bins: 9, PixelLevels: 256, Stride: 3} }

// boundary is one precomputed orientation-bin boundary.
type boundary struct {
	theta      float64
	reciprocal bool       // compare with the 1/|r| form (|tan| > 1)
	mag        float64    // |tan(theta)| or 1/|tan(theta)|, in (0, 1]
	vec        *hv.Vector // hypervector of mag
}

// Extractor computes hyperspace HOG features. Not safe for concurrent use;
// clone per goroutine with Fork.
type Extractor struct {
	P     Params
	codec *stoch.Codec
	rng   *hv.RNG

	// flips is the pixel value quantisation table, stored as flip masks
	// level ^ V1 so a fetch is one rotation and one XOR
	// (stoch.Codec.DecorrelateMaskInto). Read-only; forks share it.
	flips  []*hv.Vector
	lows   []boundary // boundaries in [0, pi/2): theta_1..theta_k
	highs  []boundary // boundaries in (pi/2, pi): theta_k+1..theta_B-1
	midBin int        // bin containing pi/2

	// idBase seeds positional-ID rematerialization: the ID of (cell c,
	// bin b) is the pure function hv.NewRemat(idSeed(c, b), D), so any
	// kernel can regenerate ID words on the fly (hv.RematWord) without
	// touching the cache. A function of the codec dimensionality only, so
	// extractors of the same geometry produce interoperable features.
	idBase uint64

	// ids caches materialized positional IDs for the feature paths that
	// still read whole vectors; filled lazily (or via WarmIDs), always
	// bit-identical to rematerializing from idSeed.
	ids map[[3]int]*hv.Vector

	// scratch is the reusable per-dimension counter buffer of
	// WindowFeature's bundling loop; tieBuf the reusable tie-break vector.
	// Both are sized once at construction (the codec's D never changes for
	// a live extractor) and owned exclusively: Fork allocates fresh ones.
	scratch []int32
	tieBuf  *hv.Vector

	// ar holds every temporary of cell extraction; exclusively owned like
	// scratch, so Fork allocates a fresh one.
	ar *arena

	// GridHook, when set, is invoked on every freshly extracted CellGrid —
	// the fault-injection seam of the chaos harness, which corrupts cell
	// hypervectors in place. LevelGrid calls it after extraction and then
	// recomputes the cached bundle weights from the (possibly corrupted)
	// cell vectors, so the corruption propagates into every window
	// assembled from the grid. Forks inherit the hook.
	GridHook func(*CellGrid)

	// Pixels counts processed gradient sites, for the hardware model.
	Pixels int64
}

// New returns an extractor over the given codec. The codec's basis defines
// value semantics; extractors sharing a codec (or forks of one) produce
// interoperable features.
func New(codec *stoch.Codec, p Params) *Extractor {
	d := DefaultParams()
	if p.CellSize <= 0 {
		p.CellSize = d.CellSize
	}
	if p.Bins <= 0 {
		p.Bins = d.Bins
	}
	if p.PixelLevels <= 0 {
		p.PixelLevels = d.PixelLevels
	}
	if p.Stride <= 0 {
		p.Stride = d.Stride
	}
	e := &Extractor{
		P:       p,
		codec:   codec,
		rng:     hv.NewRNG(0xfeed ^ uint64(codec.D())),
		idBase:  hv.Mix64(0xfeed^uint64(codec.D()), 0x1d),
		ids:     make(map[[3]int]*hv.Vector),
		scratch: make([]int32, codec.D()),
		tieBuf:  hv.New(codec.D()),
	}
	// Pixels map onto the full [-1, 1] value range (black -> -1, white ->
	// +1) rather than [0, 1]: the doubled amplitude halves the relative
	// stochastic noise of every downstream gradient, magnitude and
	// comparison. The two extreme colours are near-orthogonal signed
	// hypervectors, exactly the paper's Figure 1a construction.
	e.flips = make([]*hv.Vector, p.PixelLevels)
	for i := range e.flips {
		m := codec.Construct(2*float64(i)/float64(p.PixelLevels-1) - 1)
		e.flips[i] = m.Xor(m, codec.One())
	}
	binW := math.Pi / float64(p.Bins)
	e.midBin = int(math.Pi / 2 / binW) // bin containing pi/2
	for i := 1; i < p.Bins; i++ {
		theta := float64(i) * binW
		t := math.Tan(theta)
		b := boundary{theta: theta}
		if math.Abs(t) <= 1 {
			b.mag = math.Abs(t)
		} else {
			b.reciprocal = true
			b.mag = 1 / math.Abs(t)
		}
		b.vec = codec.Construct(b.mag)
		if theta < math.Pi/2 {
			e.lows = append(e.lows, b)
		} else {
			e.highs = append(e.highs, b)
		}
	}
	e.ar = newArena(codec.D(), e.SitesPerCell())
	return e
}

// arena is an extractor's scratch for cell extraction: pixel fetches,
// gradients, absolute values, tan-compare and square temporaries, one
// magnitude vote per gradient site with its bin, the tree-mean working set
// and a row of bin means for LevelGrid. With it, extracting a cell
// allocates nothing beyond the storage the caller keeps.
type arena struct {
	px             [4]*hv.Vector // left, right, up, down pixel fetches
	gx, gy, ax, ay *hv.Vector    // gradient and its absolute value
	t0, t1         *hv.Vector    // tan-compare and square temporaries
	votes          []hv.Vector   // one magnitude per voting site
	voteBin        []int         // bin of each vote
	nodes          []*hv.Vector  // treeMean working set
	ns             []int         // treeMean fan-in per node
	row            []hv.Vector   // LevelGrid: bin means of one cell row
}

func newArena(d, sites int) *arena {
	s := hv.NewSlab(d, 10+sites)
	return &arena{
		px: [4]*hv.Vector{&s[0], &s[1], &s[2], &s[3]},
		gx: &s[4], gy: &s[5], ax: &s[6], ay: &s[7], t0: &s[8], t1: &s[9],
		votes:   s[10:],
		voteBin: make([]int, sites),
		nodes:   make([]*hv.Vector, 0, sites),
		ns:      make([]int, sites),
	}
}

// rowBuf returns n scratch vectors for one LevelGrid cell row, growing the
// buffer when a level is wider than any seen before.
func (a *arena) rowBuf(d, n int) []hv.Vector {
	if len(a.row) < n {
		a.row = hv.NewSlab(d, n)
	}
	return a.row[:n]
}

// Codec returns the underlying stochastic codec (for stats inspection).
func (e *Extractor) Codec() *stoch.Codec { return e.codec }

// Fork derives an extractor with its own codec fork and RNG, sharing the
// basis, level table, boundary constants and positional IDs. Forks are safe
// to run on separate goroutines as long as no new image geometry is
// introduced concurrently (pre-warm IDs with WarmIDs).
func (e *Extractor) Fork() *Extractor {
	f := *e
	f.codec = e.codec.Fork()
	f.rng = hv.NewRNG(e.rng.Uint64())
	f.scratch = make([]int32, e.codec.D())
	f.tieBuf = hv.New(e.codec.D())
	f.ar = newArena(e.codec.D(), e.SitesPerCell())
	f.Pixels = 0
	return &f
}

// Reseed resets the extractor's private randomness (its RNG and its codec's
// RNG) to streams defined by seed. Afterwards the extractor's stochastic
// output is a pure function of (seed, input), independent of what it
// processed before — which is how the parallel detection sweep keeps
// per-window extraction deterministic under any goroutine schedule: each
// unit of work reseeds from its own position index before running.
func (e *Extractor) Reseed(seed uint64) {
	e.rng.Reseed(hv.Mix64(seed, 0x6e0e))
	e.codec.Reseed(hv.Mix64(seed, 0xc0de))
}

// WarmIDs pre-generates the positional ID hypervectors for a w x h image so
// concurrent forks only read the shared map.
func (e *Extractor) WarmIDs(w, h int) {
	cw, ch := w/e.P.CellSize, h/e.P.CellSize
	for c := 0; c < cw*ch; c++ {
		for b := 0; b < e.P.Bins; b++ {
			e.id(c, b)
		}
	}
}

// idSeed derives the rematerialization seed of the (cell, bin) positional
// ID. Word wi of the ID is hv.RematWord(idSeed(c, b), wi); the fused
// scoring kernel regenerates words from this seed instead of reading the
// cached vector, and both views are bit-identical by construction.
func (e *Extractor) idSeed(c, b int) uint64 {
	return hv.Mix64(e.idBase, uint64(c)*uint64(e.P.Bins)+uint64(b))
}

// id returns the positional ID for cell c, bin b, materializing it into the
// cache on first use. IDs are pure functions of (idBase, cell, bin) — no
// RNG stream is consumed and creation order is irrelevant, so extractors of
// the same dimensionality always agree on every ID.
func (e *Extractor) id(c, b int) *hv.Vector {
	key := [3]int{c, b, 0}
	if v, ok := e.ids[key]; ok {
		return v
	}
	v := hv.NewRemat(e.idSeed(c, b), e.codec.D())
	e.ids[key] = v
	return v
}

// pixelInto writes a decorrelated hypervector for the normalised pixel
// value v in [0, 1] into dst, via the quantisation table (paper Figure 1a:
// correlative base hypervectors between the two extreme colours).
func (e *Extractor) pixelInto(dst *hv.Vector, v float64) *hv.Vector {
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	idx := int(v*float64(len(e.flips)-1) + 0.5)
	// A fresh random rotation per fetch keeps reuses pairwise independent.
	return e.codec.DecorrelateMaskInto(dst, e.flips[idx], 1+e.rng.Intn(e.codec.D()-1))
}

// GradientHV returns the hypervectors of the scaled gradient components at
// (x, y). With pixels on the [-1, 1] scale, the represented values are
// (I'(x+1,y)-I'(x-1,y))/2 and (I'(x,y+1)-I'(x,y-1))/2 where I' = 2*I - 1,
// i.e. exactly twice the classical [0,1]-normalised centred difference.
func (e *Extractor) GradientHV(img *imgproc.Image, x, y int) (gx, gy *hv.Vector) {
	d := e.codec.D()
	gx, gy = hv.New(d), hv.New(d)
	e.gradientInto(gx, gy, img, x, y)
	return gx, gy
}

// gradientInto is GradientHV writing into gx and gy.
func (e *Extractor) gradientInto(gx, gy *hv.Vector, img *imgproc.Image, x, y int) {
	px := e.ar.px
	left := e.pixelInto(px[0], img.Norm(x-1, y))
	right := e.pixelInto(px[1], img.Norm(x+1, y))
	up := e.pixelInto(px[2], img.Norm(x, y-1))
	down := e.pixelInto(px[3], img.Norm(x, y+1))
	e.codec.SubInto(gx, right, left)
	e.codec.SubInto(gy, down, up)
}

// MagnitudeHV returns the gradient magnitude hypervector: the paper's
// sqrt((gx^2+gy^2)/2), or (|gx|+|gy|)/2 when MagnitudeL1 is set.
func (e *Extractor) MagnitudeHV(gx, gy *hv.Vector) *hv.Vector {
	return e.magnitudeInto(hv.New(e.codec.D()), gx, gy)
}

// magnitudeInto is MagnitudeHV writing into dst.
func (e *Extractor) magnitudeInto(dst, gx, gy *hv.Vector) *hv.Vector {
	c, a := e.codec, e.ar
	if e.P.MagnitudeL1 {
		return c.WeightedAvgInto(dst, 0.5, e.abs(a.ax, gx, c.Sign(gx)), e.abs(a.ay, gy, c.Sign(gy)))
	}
	sqx := c.MulInto(a.t0, gx, c.DecorrelateInto(a.t0, gx))
	sqy := c.MulInto(a.t1, gy, c.DecorrelateInto(a.t1, gy))
	return c.SqrtInto(dst, c.WeightedAvgInto(sqx, 0.5, sqx, sqy))
}

// abs returns |v| given its decoded sign: v itself when the sign is
// non-negative, else -v written into buf. It is Codec.Abs without the
// copy, counting the same operations.
func (e *Extractor) abs(buf, v *hv.Vector, sign int) *hv.Vector {
	if sign < 0 {
		return e.codec.NegInto(buf, v)
	}
	return v
}

// tanGreater reports whether tan = |gy|/|gx| exceeds the boundary, using
// the paper's alpha construction. absGx/absGy are magnitude hypervectors.
func (e *Extractor) tanGreater(absGx, absGy *hv.Vector, b boundary) bool {
	c, t := e.codec, e.ar.t0
	var alpha *hv.Vector
	if !b.reciprocal {
		// alpha = (|gy| - r|gx|)/2
		rgx := c.MulInto(t, c.DecorrelateInto(t, b.vec), absGx)
		alpha = c.SubInto(t, absGy, rgx)
	} else {
		// r > 1: alpha = ((1/r)|gy| - |gx|)/2
		rgy := c.MulInto(t, c.DecorrelateInto(t, b.vec), absGy)
		alpha = c.SubInto(t, rgy, absGx)
	}
	return c.Decode(alpha) > 0
}

// BinOf returns the orientation bin of the gradient represented by
// (gx, gy). The quadrant comes from decoded signs; the in-quadrant search
// compares against precomputed tan boundaries, never leaving [-1, 1].
func (e *Extractor) BinOf(gx, gy *hv.Vector) int {
	c := e.codec
	sx, sy := c.Sign(gx), c.Sign(gy)
	if sx == 0 {
		// Vertical gradient direction: orientation pi/2.
		return e.midBin
	}
	absGx, absGy := e.abs(e.ar.ax, gx, sx), e.abs(e.ar.ay, gy, sy)
	if sx*sy >= 0 {
		// theta in [0, pi/2): ascend through the low boundaries; the first
		// boundary NOT exceeded closes the bin.
		for i, b := range e.lows {
			if !e.tanGreater(absGx, absGy, b) {
				return i
			}
		}
		return len(e.lows) // bin containing pi/2
	}
	// theta in (pi/2, pi): tan(theta) = -|gy|/|gx|; theta < theta_i iff
	// |gy|/|gx| > |tan(theta_i)|.
	for i, b := range e.highs {
		if e.tanGreater(absGx, absGy, b) {
			return len(e.lows) + i // bin ending at this boundary
		}
	}
	return e.P.Bins - 1
}

// treeMean reduces a non-empty slice of value hypervectors to their
// stochastic mean with a balanced tree of weighted averages. Unlike an
// incremental (left-leaning) mean, whose selection noise grows linearly
// with the number of elements, the balanced reduction keeps the compounded
// variance O(1/D) regardless of fan-in. It reduces in place: each average
// overwrites its left operand, vs is reordered, and the returned vector
// is one of its elements.
func (e *Extractor) treeMean(vs []*hv.Vector) *hv.Vector {
	ns := e.ar.ns[:len(vs)]
	for i := range ns {
		ns[i] = 1
	}
	for len(vs) > 1 {
		m := 0
		for i := 0; i+1 < len(vs); i += 2 {
			p := float64(ns[i]) / float64(ns[i]+ns[i+1])
			vs[m] = e.codec.WeightedAvgInto(vs[i], p, vs[i], vs[i+1])
			ns[m] = ns[i] + ns[i+1]
			m++
		}
		if len(vs)%2 == 1 {
			vs[m], ns[m] = vs[len(vs)-1], ns[len(vs)-1]
			m++
		}
		vs, ns = vs[:m], ns[:m]
	}
	return vs[0]
}

// CellBins holds the per-cell histogram in hyperspace: for every
// orientation bin, the square root of the mean voting magnitude (a
// hypervector) and the integer vote count. Counts are classical side
// information, exactly like the histogram's bin index itself; they weight
// the bundle so the feature encodes both edge strength and edge frequency.
type CellBins struct {
	Vecs   []*hv.Vector
	Counts []int
}

// CellHistogramHVs computes the histogram hypervectors of every cell. All
// cells share one vector slab and one Vecs and one Counts array, so the
// call allocates a fixed handful of times whatever the image size.
func (e *Extractor) CellHistogramHVs(img *imgproc.Image) []CellBins {
	cs, bins := e.P.CellSize, e.P.Bins
	cw, ch := img.W/cs, img.H/cs
	out := make([]CellBins, cw*ch)
	vecs := hv.NewSlab(e.codec.D(), cw*ch*bins)
	ptrs := make([]*hv.Vector, len(vecs))
	counts := make([]int, len(vecs))
	for i := range vecs {
		ptrs[i] = &vecs[i]
	}
	for ci := range out {
		s, t := ci*bins, (ci+1)*bins
		e.cellHist(img, ci%cw*cs, ci/cw*cs, vecs[s:t], counts[s:t], false)
		out[ci] = CellBins{Vecs: ptrs[s:t:t], Counts: counts[s:t:t]}
	}
	return out
}

// cellHist computes the histogram of the cell whose top-left pixel is
// (x0, y0), sampling gradients on the stride lattice, into vecs and counts
// (one entry per bin). A non-empty bin's mean magnitude is written into
// vecs[b]. An empty bin gets a Construct(0) hypervector, unless skipEmpty
// is set: then vecs[b] is left untouched — the cell-grid path never reads
// it, and skipping the constructions shaves a measurable slice off level
// precomputation. Every temporary lives in the extractor's arena.
func (e *Extractor) cellHist(img *imgproc.Image, x0, y0 int, vecs []hv.Vector, counts []int, skipEmpty bool) {
	c, a := e.codec, e.ar
	st := e.P.Stride
	n := 0 // votes cast
	for py := st / 2; py < e.P.CellSize; py += st {
		for px := st / 2; px < e.P.CellSize; px += st {
			e.gradientInto(a.gx, a.gy, img, x0+px, y0+py)
			e.Pixels++
			if c.Sign(a.gx) == 0 && c.Sign(a.gy) == 0 {
				continue // statistically flat: no vote
			}
			a.voteBin[n] = e.BinOf(a.gx, a.gy)
			e.magnitudeInto(&a.votes[n], a.gx, a.gy)
			n++
		}
	}
	for b := range counts {
		nodes := a.nodes[:0]
		for i, vb := range a.voteBin[:n] {
			if vb == b {
				nodes = append(nodes, &a.votes[i])
			}
		}
		counts[b] = len(nodes)
		switch {
		case len(nodes) > 0:
			vecs[b].CopyFrom(e.treeMean(nodes))
		case !skipEmpty:
			c.ConstructInto(&vecs[b], 0)
		}
	}
}

// weightScale converts a histogram value (vote count times mean magnitude,
// at most count * 0.5) into an integer bundle weight with enough dynamic
// range that quantisation is negligible next to the stochastic noise.
const weightScale = 64

// Feature returns the single feature hypervector of the image. Every
// (cell, bin) gets a positional ID atom whose bundle weight is the
// histogram value computed in hyperspace: the vote count times the decoded
// mean magnitude. Reading the magnitude out is a similarity measurement —
// the same native HDC primitive the comparison operator of Section 4 is
// built on — so the whole histogram is produced by stochastic arithmetic
// and the feature similarity between two images approximates the histogram
// dot product at full scale.
//
// When BindBundle is set the extractor instead XOR-binds each histogram
// hypervector to its ID and bundles those (the ablation discussed in
// DESIGN.md); the resulting similarities carry a value-squared attenuation
// that buries fine class margins under the 1/sqrt(D) sampling noise.
func (e *Extractor) Feature(img *imgproc.Image) *hv.Vector {
	cells := e.CellHistogramHVs(img)
	// The bundling below is the stoch-mode counterpart of the projection
	// encoder: it maps the extracted histogram into the final feature
	// hypervector, so it carries the "encode" stage span.
	sp := obs.StartSpan("encode")
	defer sp.End()
	sp.AddItems(1)
	d := e.codec.D()
	acc := hv.NewAccumulator(d)
	bound := hv.New(d)
	for ci, cb := range cells {
		for b, v := range cb.Vecs {
			if cb.Counts[b] == 0 {
				continue
			}
			if e.P.BindBundle {
				bound.Xor(v, e.id(ci, b))
				acc.AddScaled(bound, int32(cb.Counts[b]))
				continue
			}
			val := e.codec.Decode(v)
			if val < 0 {
				val = 0
			}
			// Cosine similarity is scale-invariant, so no per-cell
			// normalisation is needed; the fixed scale only keeps integer
			// quantisation well below the stochastic noise floor.
			w := int32(float64(cb.Counts[b])*val*weightScale + 0.5)
			if w == 0 {
				continue
			}
			acc.AddScaled(e.id(ci, b), w)
		}
	}
	tie := hv.NewRand(e.rng, d)
	out, _ := acc.Sign(tie)
	return out
}

// SitesPerCell returns the number of gradient sites in one histogram cell
// for the configured stride.
func (e *Extractor) SitesPerCell() int {
	n := 0
	for p := e.P.Stride / 2; p < e.P.CellSize; p += e.P.Stride {
		n++
	}
	return n * n
}

// DecodedHistograms decodes every cell histogram back to float bin values
// comparable (up to the sqrt(2)*sites scale) with the classical hard HOG
// evaluated at the same sites: h(c,b) = count/sites * decode(vec).
func (e *Extractor) DecodedHistograms(img *imgproc.Image) [][]float64 {
	cells := e.CellHistogramHVs(img)
	cellPixels := float64(e.SitesPerCell())
	out := make([][]float64, len(cells))
	for i, cb := range cells {
		row := make([]float64, len(cb.Vecs))
		for b, v := range cb.Vecs {
			row[b] = float64(cb.Counts[b]) / cellPixels * e.codec.Decode(v)
		}
		out[i] = row
	}
	return out
}

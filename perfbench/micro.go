package main

import (
	"runtime"
	"time"

	"hdface"
	"hdface/internal/hdc"
	"hdface/internal/hdhog"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/stoch"
)

// microInputs are what the traced run's micro-timings draw from: the
// workload's pipeline configuration and model, and one of its own inputs
// (a scene, a frame, a request image) for pixels and windows.
type microInputs struct {
	cfg    hdface.Config
	model  *hdc.Model
	pixels *imgproc.Image
}

// perCall times fn in blocks of n calls and returns the median over the
// blocks of the time per call. fn receives a running call index.
func perCall(n, blocks int, fn func(i int)) time.Duration {
	fn(0) // first-call effects (lazy tables, cold caches) are not the steady cost
	per := make([]float64, blocks)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(b*n + i)
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(per))
}

// allocsPerCall counts heap allocations per call of fn over n calls.
func allocsPerCall(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// microLayers times single public calls of the hdhog, stoch, hdface and hdc
// layers at the workload's dimensionality, on the workload's own pixels.
// They explain the level-grid and feature times above them; they run after
// the measured phases and count in no end-to-end metric.
func microLayers(r *report, in microInputs) error {
	cfg := in.cfg
	var opts []stoch.Option
	if cfg.SqrtIterations > 0 {
		opts = append(opts, stoch.WithSqrtIterations(cfg.SqrtIterations))
	}
	codec := stoch.NewCodec(cfg.D, cfg.Seed^0xcafe, opts...)
	hp := hdhog.DefaultParams()
	hp.Stride = cfg.Stride
	ext := hdhog.New(codec, hp)
	ext.WarmIDs(win, win)

	img := in.pixels
	window := img.Crop((img.W-win)/2, (img.H-win)/2, win, win)
	type site struct{ x, y int }
	var sites []site
	for i := 0; i < 256; i++ {
		sites = append(sites, site{1 + (i*37)%(img.W-2), 1 + (i*53)%(img.H-2)})
	}
	type grad struct{ gx, gy *hv.Vector }
	grads := make([]grad, len(sites))
	for i, s := range sites {
		grads[i].gx, grads[i].gy = ext.GradientHV(img, s.x, s.y)
	}

	// Per-pixel kernels of the hyperspace HOG.
	r.set("hdhog.gradient_ns", float64(perCall(256, 5, func(i int) {
		s := sites[i%len(sites)]
		ext.GradientHV(img, s.x, s.y)
	})))
	r.set("hdhog.magnitude_ns", float64(perCall(64, 5, func(i int) {
		g := grads[i%len(grads)]
		ext.MagnitudeHV(g.gx, g.gy)
	})))
	r.set("hdhog.bin_ns", float64(perCall(256, 5, func(i int) {
		g := grads[i%len(grads)]
		ext.BinOf(g.gx, g.gy)
	})))

	// Cells: a window's worth of cell histograms, reported per cell.
	cells := float64((win / hp.CellSize) * (win / hp.CellSize))
	r.set("hdhog.cell_us", us(perCall(1, 5, func(int) { ext.CellHistogramHVs(window) }))/cells)
	r.set("hdhog.cell_allocs", allocsPerCall(2, func(int) { ext.CellHistogramHVs(window) })/cells)
	r.set("hdhog.feature_allocs", allocsPerCall(2, func(int) { ext.Feature(window) }))

	// Window assembly from a level grid: the two-pass WindowFeature the
	// production scorer runs, and the fused kernel it does not.
	level := img.Crop(0, 0, min(img.W, 2*win), min(img.H, 2*win))
	grid := ext.LevelGrid(level, cfg.Seed, 1)
	winCells := win / hp.CellSize
	type pos struct{ cx, cy int }
	var poss []pos
	for cy := 0; cy+winCells <= grid.CH; cy++ {
		for cx := 0; cx+winCells <= grid.CW; cx++ {
			poss = append(poss, pos{cx, cy})
		}
	}
	r.set("hdhog.window_feature_us", us(perCall(16, 5, func(i int) {
		p := poss[i%len(poss)]
		ext.WindowFeature(grid, p.cx, p.cy, winCells)
	})))
	classes := in.model.BinWords()
	arena := hdhog.NewScoreArena(cfg.D, winCells, hp.Bins, len(classes))
	r.set("hdhog.fused_score_us", us(perCall(16, 5, func(i int) {
		p := poss[i%len(poss)]
		ext.FusedWindowScore(grid, p.cx, p.cy, winCells, classes, arena)
	})))

	// Stochastic primitives on representative operands.
	a, b := codec.Construct(0.3), codec.Construct(-0.2)
	sq := codec.Construct(0.25)
	r.set("stoch.sqrt_ns", float64(perCall(64, 5, func(int) { codec.Sqrt(sq) })))
	r.set("stoch.sub_ns", float64(perCall(256, 5, func(int) { codec.Sub(a, b) })))
	r.set("stoch.compare_ns", float64(perCall(256, 5, func(int) { codec.Compare(a, b) })))
	r.set("stoch.decorrelate_shift_ns", float64(perCall(256, 5, func(i int) {
		codec.DecorrelateShift(a, 1+i%(cfg.D-1))
	})))

	// Whole-window features through a fresh pipeline of the same
	// configuration, and the classifier on them.
	p := hdface.New(cfg)
	var crops []*imgproc.Image
	for i := 0; i < tenantFeedbackBatch; i++ {
		x := (i * 29) % (img.W - win + 1)
		y := (i * 41) % (img.H - win + 1)
		crops = append(crops, img.Crop(x, y, win, win))
	}
	r.set("hdface.feature_ms", ms(perCall(2, 3, func(i int) { p.Feature(crops[i%len(crops)]) })))
	feats := p.Features(crops)
	labels := make([]int, len(feats))
	for i := range labels {
		labels[i] = i % in.model.K
	}
	r.set("hdc.score_us", us(perCall(256, 5, func(i int) { in.model.Scores(feats[i%len(feats)]) })))
	r.set("hdc.score_binary_us", us(perCall(256, 5, func(i int) { in.model.ScoreBinary(feats[i%len(feats)]) })))
	var err error
	r.set("hdc.update_ms", ms(perCall(1, 5, func(int) {
		if _, uerr := in.model.Clone().Update(feats, labels, hdc.TrainOpts{}); uerr != nil {
			err = uerr
		}
	})))
	return err
}

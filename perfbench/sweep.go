package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/detect"
	"hdface/internal/hdhog"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/obs"
)

// sweep-lattice: one caller sweeps distinct seeded scenes back to back, as
// the CLI's detect subcommand does: scene in, detect.Sweep with the
// FaceScorer that Pipeline.DetectScorer builds, boxes out, overlay drawn
// and encoded. Stride 24 sits on the 8-pixel cell lattice, so every window
// is assembled from a cached level grid and the off-lattice fallback never
// runs.

var sweepScales = []float64{1, 1.5, 2}

const (
	sceneFaces  = 3
	sweepStride = 24
	sweepNMS    = 0.3 // the CLI default
)

type sweepConfig struct {
	Size   int // scene edge in pixels
	Recipe detectorRecipe
	// EvalScenes is the size of the fixed evaluation set quality is
	// scored on.
	EvalScenes int
}

func sweepSizes(tiny bool) sweepConfig {
	if tiny {
		return sweepConfig{Size: 160, EvalScenes: 2, Recipe: detectorRecipe{D: 512, N: 24, Mining: 1, MiningSize: 160}}
	}
	return sweepConfig{Size: 512, EvalScenes: 8, Recipe: detectorRecipe{D: 2048, N: 320, Mining: 2, MiningSize: 512}}
}

type sweepSetup struct {
	p      *hdface.Pipeline
	scorer *hdface.FaceScorer
}

func (s *sweepSetup) fingerprint() uint64 { return s.p.Model().Fingerprint() }
func (s *sweepSetup) close()              {}

func newSweepSetup(cfg sweepConfig) (*sweepSetup, error) {
	p, err := trainDetector(cfg.Recipe)
	if err != nil {
		return nil, err
	}
	scorer, err := p.DetectScorer(nil, win)
	if err != nil {
		return nil, err
	}
	return &sweepSetup{p: p, scorer: scorer}, nil
}

func sweepParams(workers int) detect.Params {
	return detect.Params{Win: win, Stride: sweepStride, Scales: sweepScales, NMSIoU: sweepNMS, Workers: workers}
}

// sceneSeed derives scene i's seed from a workload or evaluation seed.
func sceneSeed(seed uint64, i int) uint64 { return hv.Mix64(seed^0x5ce4e, uint64(i)) }

func scene(cfg sweepConfig, seed uint64, i int) *dataset.Scene {
	return dataset.GenerateScene(cfg.Size, cfg.Size, win, sceneFaces, sceneSeed(seed, i))
}

// sweepOp is one measured scene.
type sweepOp struct {
	lat, write, lag time.Duration
	boxes           []detect.Box
	degraded        bool
	err             error
}

// sweepPhase sweeps scenes 0, 1, ... of seed until the phase has run for
// dur, and at least one scene. With a tracer, each scene is an operation
// whose spans the decorated scorer fills in.
func sweepPhase(cfg sweepConfig, seed uint64, scorer detect.WindowScorer, dur time.Duration,
	tr *tracer, cur *sweepSpan) ([]sweepOp, time.Duration) {
	var ops []sweepOp
	params := sweepParams(runtime.NumCPU())
	start := time.Now()
	prevEnd := start
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		sc := scene(cfg, seed, i)
		t0 := time.Now()
		root := tr.begin("op.sweep", -1, int32(i))
		sw := tr.begin("detect.sweep", root, int32(i))
		if cur != nil {
			*cur = sweepSpan{op: int32(i), parent: sw}
		}
		boxes, stats, err := detect.Sweep(context.Background(), sc.Image, scorer, params)
		tr.finish(sw)
		tr.finish(root)
		op := sweepOp{lat: time.Since(t0), lag: t0.Sub(prevEnd), boxes: boxes, degraded: stats.Degraded, err: err}
		w0 := time.Now()
		if err := encodeOverlay(sc.Image, boxes); err != nil && op.err == nil {
			op.err = err
		}
		op.write = time.Since(w0)
		prevEnd = time.Now()
		ops = append(ops, op)
	}
	return ops, time.Since(start)
}

// encodeOverlay draws the boxes on a copy of the scene and encodes it as
// PGM, the CLI's result write, into memory: a file write would time the
// host's disk.
func encodeOverlay(img *imgproc.Image, boxes []detect.Box) error {
	overlay := img.Clone()
	for _, b := range boxes {
		overlay.StrokeRect(b.X0, b.Y0, b.X1, b.Y1, 255)
	}
	var buf bytes.Buffer
	return overlay.WritePGM(&buf)
}

// sweepQuality sweeps the fixed evaluation scenes and reports the pooled
// detection F1 at IoU 0.5 as quality.
func sweepQuality(r *report, cfg sweepConfig, scorer detect.WindowScorer, tiny bool) error {
	tp, fp, fn := 0, 0, 0
	for i := 0; i < cfg.EvalScenes; i++ {
		sc := scene(cfg, evalSeed, i)
		boxes, _, err := detect.Sweep(context.Background(), sc.Image, scorer, sweepParams(runtime.NumCPU()))
		if err != nil {
			return fmt.Errorf("sweep quality: %w", err)
		}
		t, f, n := detect.MatchTruth(boxes, sc.Faces, 0.5)
		tp, fp, fn = tp+t, fp+f, fn+n
	}
	q := f1(tp, fp, fn)
	r.printf("quality: F1 %.4f at IoU 0.5 over the %d evaluation scenes (tp=%d fp=%d fn=%d)", q, cfg.EvalScenes, tp, fp, fn)
	r.set("quality", q)
	if !tiny {
		r.check("sweep_quality_floor", q >= 0.05, "F1 %.3f (floor 0.05)", q)
	}
	return nil
}

func runSweepLattice(o options, r *report) error {
	cfg := sweepSizes(o.tiny)
	r.printf("workload sweep-lattice: closed loop, 1 caller; %dx%d scenes, %d faces, scales %v, window %d, stride %d, workers %d, D=%d",
		cfg.Size, cfg.Size, sceneFaces, sweepScales, win, sweepStride, runtime.NumCPU(), cfg.Recipe.D)
	s, err := repeatSetup(r, func() (*sweepSetup, error) { return newSweepSetup(cfg) })
	if err != nil {
		return fmt.Errorf("sweep-lattice setup: %w", err)
	}
	total := time.Duration(o.seconds * float64(time.Second))

	phaseA := total
	if o.trace {
		phaseA = total / 2
	}
	w0, g0 := s.p.Work(), readGo()
	ops, wall := sweepPhase(cfg, o.seed, s.scorer, phaseA, nil, nil)
	w1, g1 := s.p.Work(), readGo()
	r.measured()
	failed := countSweepFailures(ops)
	r.phase("sweep (untraced)", int64(len(ops)), failed)

	var lats, writes, lags []float64
	for _, op := range ops {
		lats = append(lats, ms(op.lat))
		writes = append(writes, ms(op.write))
		lags = append(lags, ms(op.lag))
	}
	tl := tailOf(lats)
	r.printf("latency p50 %.3f ms, tail %s over %d scenes; overlay p50 %.3f ms",
		median(lats), tl, tl.N, median(writes))
	r.set("latency_p50_ms", median(lats))
	r.set("latency_tail_ms", tl.Value)
	r.set("throughput_per_s", float64(len(ops))/wall.Seconds())
	r.set("write_p50_ms", median(writes))
	r.set("ok_frac", 1-float64(failed)/float64(len(ops)))
	r.check("sweep_ops_ok", failed == 0, "%d of %d scenes failed or degraded", failed, len(ops))

	// Determinism contract: the first scene swept by one worker gives the
	// same boxes as the measured nproc-worker sweep.
	scene0 := scene(cfg, o.seed, 0)
	one, _, err := detect.Sweep(context.Background(), scene0.Image, s.scorer, sweepParams(1))
	r.check("sweep_workers_identical", err == nil && reflect.DeepEqual(one, ops[0].boxes),
		"scene 0: %d boxes with 1 worker, %d with %d workers", len(one), len(ops[0].boxes), runtime.NumCPU())

	if !o.trace {
		return sweepQuality(r, cfg, s.scorer, o.tiny)
	}
	r.setGo(g0, g1, len(ops))
	setStochCounts(r, w0, w1, len(ops))
	r.set("loadgen.lag_ms", median(lags))

	// Traced run: the same scenes again through the decorated scorer.
	tr := newTracer()
	cur := &sweepSpan{}
	ts := &tracedScorer{inner: s.scorer, tr: tr, cur: cur, cell: hdhog.DefaultParams().CellSize, corrupt: o.corrupt}
	tops, _ := sweepPhase(cfg, o.seed, ts, total-phaseA, tr, cur)
	r.phase("sweep (traced)", int64(len(tops)), countSweepFailures(tops))

	common := min(len(ops), len(tops))
	same := true
	var la, lb []float64
	for i := 0; i < common; i++ {
		same = same && reflect.DeepEqual(ops[i].boxes, tops[i].boxes)
		la = append(la, ms(ops[i].lat))
		lb = append(lb, ms(tops[i].lat))
	}
	r.check("sweep_traced_identical", same, "boxes of %d scenes swept untraced and traced", common)
	r.set("trace.overhead", ratio(median(lb), median(la)))

	setSweepLayers(r, tr, runtime.NumCPU())
	// The grid/fallback window counters count only while obs is enabled,
	// and enabling it slows every stochastic operation, so they are read
	// over one more sweep of scene 0 after the traced phase.
	obs.Enable()
	c0 := obs.TakeSnapshot().Counters
	_, _, err = detect.Sweep(context.Background(), scene0.Image, s.scorer, sweepParams(runtime.NumCPU()))
	c1 := obs.TakeSnapshot().Counters
	obs.Disable()
	if err != nil {
		return err
	}
	setFallbackRatio(r, c0, c1)

	ls := tr.ledgers()
	writeLedger(r.w, o.workload, ls)
	setCoverage(r, ls)
	if err := tr.writeSpans(filepath.Join(o.out, "spans-"+o.workload+".ndjson")); err != nil {
		return err
	}
	return microLayers(r, microInputs{cfg: s.p.Config(), model: s.p.Model(), pixels: scene0.Image})
}

func countSweepFailures(ops []sweepOp) int64 {
	var n int64
	for _, op := range ops {
		if op.err != nil || op.degraded {
			n++
		}
	}
	return n
}

// Names of the existing grid/fallback window counters the hdface package
// keeps; SweepStats carries no per-window split.
const (
	counterGrid = "hdface_detect_grid_windows_total"
	counterFull = "hdface_detect_full_extractions_total"
)

// setFallbackRatio reports the share of windows that took the off-lattice
// fallback, a full per-window extraction, from the counter readings around
// the windows' sweeps.
func setFallbackRatio(r *report, c0, c1 map[string]int64) {
	grid := c1[counterGrid] - c0[counterGrid]
	full := c1[counterFull] - c0[counterFull]
	r.set("hdface.fallback_ratio", ratio(float64(full), float64(grid+full)))
	r.printf("windows: %d from cell grids, %d full extractions", grid, full)
}

// setSweepLayers derives the detect and hdface layer metrics from the
// decorated scorer's spans.
func setSweepLayers(r *report, tr *tracer, workers int) {
	r.set("detect.self_ms", median(tr.selfTimes("detect.sweep"))/1e6)
	r.set("hdface.prepare_level_ms", median(tr.perOp("hdface.prepare_level"))/1e6)
	setScoreLayers(r, tr, workers)
}

// setScoreLayers derives per-window scoring times and the worker pool's
// efficiency: scorer busy time over the scoring region's wall time times
// the worker count, per sweep.
func setScoreLayers(r *report, tr *tracer, workers int) {
	r.set("hdface.score_grid_us", median(tr.durations("hdface.score_grid"))/1e3)
	r.set("hdface.score_fallback_us", median(tr.durations("hdface.score_fallback"))/1e3)
	type region struct{ lo, hi, busy int64 }
	regions := map[int32]*region{}
	for _, s := range tr.spans {
		if s.Name != "hdface.score_grid" && s.Name != "hdface.score_fallback" {
			continue
		}
		g := regions[s.Op]
		if g == nil {
			g = &region{lo: s.Start, hi: s.End}
			regions[s.Op] = g
		}
		g.lo, g.hi = min(g.lo, s.Start), max(g.hi, s.End)
		g.busy += s.End - s.Start
	}
	var effs []float64
	for _, g := range regions {
		effs = append(effs, ratio(float64(g.busy), float64(g.hi-g.lo)*float64(workers)))
	}
	r.set("detect.parallel_eff", median(effs))
}

// setCoverage reports the lowest coverage over the operation kinds.
func setCoverage(r *report, ls []ledger) {
	cov := 1.0
	for _, l := range ls {
		cov = min(cov, l.Coverage)
	}
	r.set("trace.coverage", cov)
}

// setStochCounts reports the stochastic-arithmetic work per operation from
// the pipeline's own exact counters.
func setStochCounts(r *report, a, b hdface.WorkStats, ops int) {
	if ops <= 0 {
		return
	}
	n := float64(ops)
	r.set("stoch.sqrts", float64(b.Stoch.Sqrts-a.Stoch.Sqrts)/n)
	r.set("stoch.compares", float64(b.Stoch.Compares-a.Stoch.Compares)/n)
	r.set("stoch.averages", float64(b.Stoch.Averages-a.Stoch.Averages)/n)
	r.set("stoch.decorrs", float64(b.Stoch.Decorrs-a.Stoch.Decorrs)/n)
	r.set("stoch.perm_words", float64(b.Stoch.PermWords-a.Stoch.PermWords)/n)
	r.set("stoch.words", float64(b.Stoch.TotalWords()-a.Stoch.TotalWords())/n)
}

package main

import (
	"math"
	"time"

	"hdface/internal/detect"
	"hdface/internal/imgproc"
)

// faceScorer is what the sweep sees of hdface.FaceScorer: a grid scorer
// that forks per worker.
type faceScorer interface {
	detect.GridScorer
	detect.Forker
}

// sweepSpan names the operation and sweep span the scorer's spans belong
// to. The workload sets it before each detect.Sweep call, so every worker
// the sweep starts afterwards reads it without further synchronisation.
type sweepSpan struct {
	op, parent int32
}

// tracedScorer decorates the production FaceScorer for the traced run. It
// forwards Fork, PrepareLevel, ScoreWindow and, through tracedLevel,
// ScoreAt, Fork and CloseLevel, so the sweep's Forker, GridScorer and
// LevelCloser checks see the same capabilities, and records a span around
// each call. Per-window spans are buffered per fork and handed to the
// tracer in CloseLevel, which the sweep calls serially.
type tracedScorer struct {
	inner faceScorer
	tr    *tracer
	cur   *sweepSpan
	cell  int // cell size of the hyperspace HOG lattice, in pixels
	// corrupt flips the decision of window 0 of level 0: the test hook
	// proving that the correctness checks catch one wrong box.
	corrupt bool
}

func (s *tracedScorer) ScoreWindow(win *imgproc.Image) (bool, float64) {
	start := time.Now()
	hit, score := s.inner.ScoreWindow(win)
	s.tr.add("hdface.score_window", start, time.Now(), s.cur.parent, s.cur.op)
	return hit, score
}

func (s *tracedScorer) Fork() detect.WindowScorer {
	f, ok := s.inner.Fork().(faceScorer)
	if !ok {
		return nil
	}
	c := *s
	c.inner = f
	return &c
}

func (s *tracedScorer) PrepareLevel(level *imgproc.Image, levelIdx, win, workers int) detect.LevelScorer {
	start := time.Now()
	ls := s.inner.PrepareLevel(level, levelIdx, win, workers)
	s.tr.add("hdface.prepare_level", start, time.Now(), s.cur.parent, s.cur.op)
	if ls == nil {
		return nil
	}
	return &tracedLevel{inner: ls, tr: s.tr, cur: s.cur, cell: s.cell, corrupt: s.corrupt && levelIdx == 0}
}

// tracedLevel decorates one fork of a prepared level.
type tracedLevel struct {
	inner   detect.LevelScorer
	tr      *tracer
	cur     *sweepSpan
	cell    int
	corrupt bool
	buf     []span
}

// ScoreAt times one window and files it as grid or fallback by the
// benchmark's own test: a window whose corner sits on the cell lattice is
// assembled from the level's cached cell grid, any other takes the
// fallback, a full per-window extraction.
func (l *tracedLevel) ScoreAt(x, y, idx int) (bool, float64) {
	start := time.Now()
	hit, score := l.inner.ScoreAt(x, y, idx)
	end := time.Now()
	name := "hdface.score_fallback"
	if x%l.cell == 0 && y%l.cell == 0 {
		name = "hdface.score_grid"
	}
	if l.tr != nil {
		l.buf = append(l.buf, span{Name: name, Start: l.tr.at(start), End: l.tr.at(end), Parent: l.cur.parent, Op: l.cur.op})
	}
	if l.corrupt && idx == 0 {
		hit, score = !hit, math.Abs(score)+1
	}
	return hit, score
}

func (l *tracedLevel) Fork() detect.LevelScorer {
	return &tracedLevel{inner: l.inner.Fork(), tr: l.tr, cur: l.cur, cell: l.cell, corrupt: l.corrupt}
}

func (l *tracedLevel) CloseLevel() {
	if c, ok := l.inner.(detect.LevelCloser); ok {
		c.CloseLevel()
	}
	l.tr.merge(l.buf)
	l.buf = nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/detect"
	"hdface/internal/hdc"
	"hdface/internal/hdhog"
	"hdface/internal/obs"
	"hdface/internal/obs/trace"
	"hdface/internal/serve"
	"hdface/internal/track"
)

// stream-offlattice: one /stream connection over loopback, closed loop:
// frame n+1 goes out when frame n's event arrives, like a camera that
// drops frames while the tracker is busy. Stride 4 puts most windows off
// the 8-pixel cell lattice, so full per-window extraction dominates.

const (
	streamSubjects = 2
	streamStride   = 4
	streamNMS      = 0.05 // the streambench setting
	// streamDeadline is high enough that no frame degrades: a degraded
	// frame keeps best-so-far boxes, which would make the track-ID checks
	// timing-dependent.
	streamDeadline = 10 * time.Minute
)

type streamConfig struct {
	W, H            int
	Frames          int // clip length generated at set-up; a run stops early if it streams them all
	Recipe          detectorRecipe
	EmotionPerClass int
	// EvalFrames is how many leading frames of the fixed evaluation clip
	// IDF1 is scored over, on a connection of its own.
	EvalFrames int
}

func streamSizes(tiny bool) streamConfig {
	if tiny {
		return streamConfig{W: 112, H: 80, Frames: 40, EmotionPerClass: 1, EvalFrames: 3,
			Recipe: detectorRecipe{D: 512, N: 24, Mining: 1, MiningSize: 160}}
	}
	return streamConfig{W: 192, H: 144, Frames: 400, EmotionPerClass: 4, EvalFrames: 12,
		Recipe: detectorRecipe{D: 1024, N: 320, Mining: 2, MiningSize: 512}}
}

func streamParams() detect.Params {
	return detect.Params{Win: win, Stride: streamStride, Scales: []float64{1}, NMSIoU: streamNMS, Workers: runtime.NumCPU()}
}

type streamSetup struct {
	p      *hdface.Pipeline
	model  *hdc.Model
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	clip   []dataset.SequenceFrame
	pgms   [][]byte
	// evalClip and evalPGMs are the fixed evaluation clip's leading frames.
	evalClip []dataset.SequenceFrame
	evalPGMs [][]byte
}

func (s *streamSetup) fingerprint() uint64 { return s.model.Fingerprint() }

func (s *streamSetup) close() {
	s.hs.Close()
	<-s.served
	s.srv.Close()
}

func newStreamSetup(cfg streamConfig, seed uint64) (*streamSetup, error) {
	p, err := trainDetector(cfg.Recipe)
	if err != nil {
		return nil, err
	}
	emotion, err := trainEmotion(p, cfg.EmotionPerClass)
	if err != nil {
		return nil, err
	}
	s := &streamSetup{p: p, model: p.Model()}
	// The clean scenario (the streambench replay gate's): every off-lattice
	// window is still extracted, and the tracker sees only real faces.
	if s.clip, s.pgms, err = scenario(cfg, cfg.Frames, seed); err != nil {
		return nil, err
	}
	if s.evalClip, s.evalPGMs, err = scenario(cfg, cfg.EvalFrames, evalSeed); err != nil {
		return nil, err
	}
	s.srv, err = serve.New(serve.Config{
		Pipeline:      p,
		DetectParams:  streamParams(),
		MaxDeadline:   streamDeadline,
		FrameDeadline: streamDeadline,
		Emotion:       emotion,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// scenario generates a clip and encodes its frames as PGM.
func scenario(cfg streamConfig, frames int, seed uint64) ([]dataset.SequenceFrame, [][]byte, error) {
	clip := dataset.GenerateScenario(dataset.ScenarioSpec{W: cfg.W, H: cfg.H, Frames: frames,
		Subjects: streamSubjects, Seed: seed, PlainBG: true})
	pgms := make([][]byte, len(clip))
	for i, fr := range clip {
		var b bytes.Buffer
		if err := fr.Image.WritePGM(&b); err != nil {
			return nil, nil, err
		}
		pgms[i] = b.Bytes()
	}
	return clip, pgms, nil
}

// frameOp is one frame of the closed loop, timed from the start of its
// upload to the arrival of its event.
type frameOp struct {
	sent, wrote, done time.Time
	lag               time.Duration // since the previous frame's event
	ev                serve.StreamEvent
}

func (f frameOp) lat() time.Duration { return f.done.Sub(f.sent) }

// streamConn is the client side of one /stream connection: frames go out
// through a pipe while events come back line by line.
type streamConn struct {
	pw      *io.PipeWriter
	replies chan streamReply
	resp    *http.Response
	sc      *bufio.Scanner
}

type streamReply struct {
	resp *http.Response
	err  error
}

func dialStream(url string) (*streamConn, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/stream", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c := &streamConn{pw: pw, replies: make(chan streamReply, 1)}
	go func() {
		resp, err := http.DefaultClient.Do(req)
		c.replies <- streamReply{resp, err}
	}()
	return c, nil
}

// event reads the next event. The daemon sends its response headers with
// the first event, so the first call also waits for the response.
func (c *streamConn) event() (serve.StreamEvent, error) {
	var ev serve.StreamEvent
	if c.sc == nil {
		rp := <-c.replies
		if rp.err != nil {
			return ev, rp.err
		}
		c.resp = rp.resp
		if c.resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(c.resp.Body, 1024))
			return ev, fmt.Errorf("stream: %s: %s", c.resp.Status, strings.TrimSpace(string(body)))
		}
		c.sc = bufio.NewScanner(c.resp.Body)
		c.sc.Buffer(make([]byte, 64<<10), 1<<20)
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return ev, err
		}
		return ev, io.ErrUnexpectedEOF
	}
	return ev, json.Unmarshal(c.sc.Bytes(), &ev)
}

// close ends the upload, waits for the request to finish and releases the
// response.
func (c *streamConn) close() {
	c.pw.Close()
	if c.resp == nil {
		if rp := <-c.replies; rp.resp != nil {
			c.resp = rp.resp
		}
	}
	if c.resp != nil {
		c.resp.Body.Close()
	}
}

// streamPhase opens one /stream connection and runs the closed loop over
// the clip until dur has passed (at least one frame), then ends the stream
// and reads its summary. onEvent, when set, runs after each frame's event
// arrives, before the next frame goes out.
func streamPhase(url string, pgms [][]byte, dur time.Duration, onEvent func(i int, op frameOp)) ([]frameOp, *serve.StreamSummary, time.Duration, error) {
	c, err := dialStream(url)
	if err != nil {
		return nil, nil, 0, err
	}
	defer c.close()
	var ops []frameOp
	start := time.Now()
	prev := start
	for i := 0; i < len(pgms) && (i == 0 || time.Since(start) < dur); i++ {
		op := frameOp{sent: time.Now()}
		op.lag = op.sent.Sub(prev)
		if err := serve.WriteFrame(c.pw, pgms[i]); err != nil {
			return ops, nil, 0, err
		}
		op.wrote = time.Now()
		if op.ev, err = c.event(); err != nil {
			return ops, nil, 0, fmt.Errorf("stream frame %d: %w", i, err)
		}
		op.done = time.Now()
		prev = op.done
		ops = append(ops, op)
		if onEvent != nil {
			onEvent(i, op)
		}
	}
	wall := time.Since(start)
	if err := serve.CloseFrames(c.pw); err != nil {
		return ops, nil, wall, err
	}
	for {
		ev, err := c.event()
		if err != nil {
			return ops, nil, wall, fmt.Errorf("stream summary: %w", err)
		}
		if ev.Type == "summary" {
			return ops, ev.Summary, wall, nil
		}
	}
}

// trackKey serialises the identity-relevant part of the frame events —
// frame, track IDs and boxes — leaving out latencies and trace IDs.
func trackKey(ops []frameOp) string {
	var b strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&b, "%d:", op.ev.Frame)
		for _, t := range op.ev.Tracks {
			fmt.Fprintf(&b, "%d@%v;", t.ID, t.Box)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// idf1 scores the frame events' track identities against the clip's truth
// for the frames that were streamed.
func idf1(ops []frameOp, clip []dataset.SequenceFrame) float64 {
	var obs []track.Obs
	truth := make(track.GroundTruth, len(ops))
	for i, op := range ops {
		truth[i] = clip[i].Boxes
		for _, t := range op.ev.Tracks {
			obs = append(obs, track.Obs{ID: t.ID, Frame: op.ev.Frame, Box: t.Box})
		}
	}
	return track.IDF1(obs, truth, 0.5).F1()
}

func streamFailures(ops []frameOp) int64 {
	var n int64
	for _, op := range ops {
		if op.ev.Type != "frame" || op.ev.Degraded {
			n++
		}
	}
	return n
}

func runStreamOffLattice(o options, r *report) error {
	cfg := streamSizes(o.tiny)
	r.printf("workload stream-offlattice: closed loop, 1 /stream connection over loopback; %dx%d frames, %d subjects, window %d, stride %d, scale 1, workers %d, D=%d, emotion model on",
		cfg.W, cfg.H, streamSubjects, win, streamStride, runtime.NumCPU(), cfg.Recipe.D)
	s, err := repeatSetup(r, func() (*streamSetup, error) { return newStreamSetup(cfg, o.seed) })
	if err != nil {
		return fmt.Errorf("stream-offlattice setup: %w", err)
	}
	defer s.close()
	total := time.Duration(o.seconds * float64(time.Second))

	phaseA := total
	if o.trace {
		phaseA = total / 2
	}
	w0, g0 := s.p.Work(), readGo()
	ops, sum, wall, err := streamPhase(s.url, s.pgms, phaseA, nil)
	if err != nil {
		return err
	}
	w1, g1 := s.p.Work(), readGo()
	r.measured()
	failed := streamFailures(ops)
	r.phase("stream (untraced)", int64(len(ops)), failed)
	if len(ops) == len(s.pgms) {
		r.printf("note: the clip's %d frames ran out before the phase's %v", len(ops), phaseA)
	}

	var lats, writes, lags []float64
	for _, op := range ops {
		lats = append(lats, ms(op.lat()))
		writes = append(writes, ms(op.wrote.Sub(op.sent)))
		lags = append(lags, ms(op.lag))
	}
	tl := tailOf(lats)
	r.printf("frame latency p50 %.3f ms, tail %s over %d frames; upload write p50 %.3f ms",
		median(lats), tl, tl.N, median(writes))
	r.set("latency_p50_ms", median(lats))
	r.set("latency_tail_ms", tl.Value)
	r.set("throughput_per_s", float64(len(ops))/wall.Seconds())
	r.set("write_p50_ms", median(writes))
	r.set("ok_frac", 1-float64(failed)/float64(len(ops)))
	r.check("stream_ops_ok", failed == 0, "%d of %d frames errored or degraded", failed, len(ops))
	r.check("stream_summary", sum != nil && sum.Frames == len(ops) && sum.Errors == 0,
		"summary counts %d frames for %d sent", summaryFrames(sum), len(ops))

	if !o.trace {
		return streamQuality(r, s, o.tiny)
	}
	r.setGo(g0, g1, len(ops))
	setStochCounts(r, w0, w1, len(ops))
	r.set("loadgen.lag_ms", median(lags))

	// Traced run: a second connection replays the clip from frame 0; after
	// each event the benchmark copies the frame's daemon trace into its own
	// spans.
	tr := newTracer()
	var missing int
	c0 := obs.TakeSnapshot().Counters
	tops, _, _, err := streamPhase(s.url, s.pgms, total-phaseA-total/6, func(i int, op frameOp) {
		if !copyStreamTrace(tr, int32(i), op) {
			missing++
		}
	})
	if err != nil {
		return err
	}
	c1 := obs.TakeSnapshot().Counters
	r.phase("stream (traced)", int64(len(tops)), streamFailures(tops))
	r.check("stream_traces_found", missing == 0, "%d of %d frame traces missing from the collector", missing, len(tops))

	common := min(len(ops), len(tops))
	r.check("stream_traced_identical", trackKey(ops[:common]) == trackKey(tops[:common]),
		"track IDs and boxes of %d frames streamed untraced and traced", common)
	var la, lb []float64
	for i := 0; i < common; i++ {
		la = append(la, ms(ops[i].lat()))
		lb = append(lb, ms(tops[i].lat()))
	}
	r.set("trace.overhead", ratio(median(lb), median(la)))

	r.set("serve.stream_queue_wait_ms", median(tr.durations("serve.stream_queue_wait"))/1e6)
	r.set("serve.outside_ms", median(tr.perOp("serve.transport"))/1e6)
	r.set("serve.rejected", float64(c1[counterRejected]-c0[counterRejected]))
	r.set("detect.self_ms", median(tr.selfTimes("detect.sweep"))/1e6)
	r.set("hdface.prepare_level_ms", median(tr.perOp("hdface.prepare_level"))/1e6)
	r.set("track.step_us", median(tr.durations("track.step"))/1e3)
	setFallbackRatio(r, c0, c1)

	// Per-window times: the daemon's sweep keeps them to itself, so a few
	// frames are swept again directly through the decorated scorer, with
	// the daemon's geometry and model.
	rt := newTracer()
	rp := hdface.New(s.p.Config())
	inner, err := rp.DetectScorer(s.model, win)
	if err != nil {
		return err
	}
	cur := &sweepSpan{}
	ts := &tracedScorer{inner: inner, tr: rt, cur: cur, cell: hdhog.DefaultParams().CellSize}
	for i := 0; i < min(2, len(s.clip)); i++ {
		root := rt.begin("op.frame_sweep", -1, int32(i))
		*cur = sweepSpan{op: int32(i), parent: root}
		if _, _, err := detect.Sweep(context.Background(), s.clip[i].Image, ts, streamParams()); err != nil {
			return err
		}
		rt.finish(root)
	}
	setScoreLayers(r, rt, runtime.NumCPU())

	ls := tr.ledgers()
	writeLedger(r.w, o.workload, ls)
	setCoverage(r, ls)
	if err := tr.writeSpans(filepath.Join(o.out, "spans-"+o.workload+".ndjson")); err != nil {
		return err
	}
	return microLayers(r, microInputs{cfg: s.p.Config(), model: s.model, pixels: s.clip[0].Image})
}

// streamQuality streams the fixed evaluation clip on a connection of its
// own, so the tracker starts fresh and sees the same frames on every run,
// and reports its IDF1 as quality.
func streamQuality(r *report, s *streamSetup, tiny bool) error {
	ops, _, _, err := streamPhase(s.url, s.evalPGMs, time.Duration(math.MaxInt64), nil)
	if err != nil {
		return fmt.Errorf("stream quality: %w", err)
	}
	q := idf1(ops, s.evalClip)
	r.printf("quality: IDF1 %.4f at IoU 0.5 over the %d frames of the evaluation clip", q, len(ops))
	r.set("quality", q)
	r.check("stream_quality_frames", len(ops) == len(s.evalPGMs) && streamFailures(ops) == 0,
		"%d of %d evaluation frames streamed, %d failed", len(ops), len(s.evalPGMs), streamFailures(ops))
	if !tiny {
		r.check("stream_quality_floor", q >= 0.1, "IDF1 %.3f (floor 0.1)", q)
	}
	return nil
}

func summaryFrames(s *serve.StreamSummary) int {
	if s == nil {
		return -1
	}
	return s.Frames
}

// counterRejected is the daemon's admission-control 503 counter.
const counterRejected = "hdface_serve_rejected_total"

// daemonSpanNames maps the daemon's trace span names onto layer spans.
var daemonSpanNames = map[string]string{
	"queue_wait":   "serve.queue_wait",
	"batch_wait":   "serve.batch_wait",
	"inference":    "serve.inference",
	"extract":      "hdface.extract",
	"detect_sweep": "detect.sweep",
	"level":        "hdface.prepare_level",
	"score":        "hdface.score",
	"track":        "track.step",
}

// findTrace looks a finished trace up in the daemon's collector. The
// collector keeps the 256 most recent traces, so callers look up soon
// after the response.
func findTrace(kind, id string, limit int) (trace.ExportTrace, bool) {
	for _, t := range trace.Snapshot(trace.Filter{Kind: kind, Limit: limit}).Traces {
		if t.TraceID == id {
			return t, true
		}
	}
	return trace.ExportTrace{}, false
}

// copyDaemonTrace files a daemon trace as spans of operation op under
// parent: the trace's span tree, renamed to layer spans, and the two gaps
// between the client's interval [sent, done] and the trace as
// serve.transport (HTTP framing, body decode, response encode).
func copyDaemonTrace(tr *tracer, op, parent int32, t trace.ExportTrace, sent, done time.Time, rename map[string]string) {
	start := time.Unix(0, t.StartUnixNano)
	end := start.Add(time.Duration(t.DurationUS) * time.Microsecond)
	tr.add("serve.transport", sent, start, parent, op)
	tr.add("serve.transport", end, done, parent, op)
	var walk func(ss []trace.ExportSpan, parent int32)
	walk = func(ss []trace.ExportSpan, parent int32) {
		for _, s := range ss {
			name, ok := rename[s.Name]
			if !ok {
				name = "serve." + s.Name
			}
			a := start.Add(time.Duration(s.StartUS) * time.Microsecond)
			b := a.Add(time.Duration(s.DurationUS) * time.Microsecond)
			idx := tr.add(name, a, b, parent, op)
			walk(s.Children, idx)
		}
	}
	walk(t.Spans, parent)
}

// streamSpanNames is daemonSpanNames with the stream's own queue wait,
// reported apart from /predict's.
var streamSpanNames = func() map[string]string {
	m := map[string]string{}
	for k, v := range daemonSpanNames {
		m[k] = v
	}
	m["queue_wait"] = "serve.stream_queue_wait"
	return m
}()

// copyStreamTrace files one frame's daemon trace under a new operation.
func copyStreamTrace(tr *tracer, op int32, f frameOp) bool {
	t, ok := findTrace("stream", f.ev.TraceID, 8)
	if !ok {
		return false
	}
	root := tr.add("op.frame", f.sent, f.done, -1, op)
	copyDaemonTrace(tr, op, root, t, f.sent, f.done, streamSpanNames)
	return true
}

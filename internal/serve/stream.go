package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"hdface/internal/dataset"
	"hdface/internal/detect"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/obs"
	"hdface/internal/obs/trace"
	"hdface/internal/track"
)

// writeNDJSON writes one event line; NDJSON framing is json.Encoder's
// one-value-per-line output.
func writeNDJSON(w io.Writer, v any) { json.NewEncoder(w).Encode(v) }

// POST /stream turns the daemon into a tracking service: the request body is
// a sequence of PGM frames, the response a stream of NDJSON events — one per
// frame with detected boxes and stable track IDs, then one summary.
//
// The wire format is length-prefixed on both sides of the PGM decoder
// because ReadPGM buffers past a frame's end: each frame is an ASCII decimal
// byte count terminated by '\n' followed by exactly that many PGM bytes; a
// zero count (or EOF at a prefix) ends the stream. The client writes frames
// while reading events, so the stream is flow-controlled by HTTP itself.
//
// Each frame runs under its own anytime deadline (Config.FrameDeadline,
// overridable per stream with ?frame_deadline=): a frame that blows the
// budget degrades to best-so-far boxes — the detect package's contract —
// instead of stalling every frame behind it. Frames go through the same
// admission queue as everything else; a full queue drops the frame with a
// 503-class event and the stream keeps going.

var (
	obsStreamReqs   = obs.NewCounter("hdface_serve_stream_requests_total", "accepted /stream requests")
	obsStreamFrames = obs.NewCounter("hdface_serve_stream_frames_total", "frames processed by /stream")
	obsStreamErrors = obs.NewCounter("hdface_serve_stream_frame_errors_total", "per-frame error events emitted by /stream")
)

// StreamSchema identifies the /stream summary JSON layout.
const StreamSchema = "hdface-stream/v1"

// StreamTrackJSON is one tracked face in a frame event.
type StreamTrackJSON struct {
	ID    int     `json:"id"`
	Box   [4]int  `json:"box"` // x0, y0, x1, y1
	Score float64 `json:"score"`
	// Coasted marks a confirmed track (two or more matched detections) the
	// sweep missed this frame: the tracker is holding its last box through
	// the dropout. Box is that held box; Score is zero.
	Coasted bool `json:"coasted,omitempty"`
	// Emotion is the dominant class of the track's temporally bundled
	// appearance (present only when the server has an emotion model).
	Emotion string `json:"emotion,omitempty"`
}

// StreamEvent is one NDJSON line of the POST /stream response. Type is
// "frame" (Tracks et al. set), "error" (Code/Error set; the stream
// continues unless the framing itself broke) or "summary" (Summary set,
// always the final event).
type StreamEvent struct {
	Type         string            `json:"type"`
	Frame        int               `json:"frame"`
	Tracks       []StreamTrackJSON `json:"tracks,omitempty"`
	Degraded     bool              `json:"degraded,omitempty"`
	Windows      int64             `json:"windows,omitempty"`
	ElapsedMS    float64           `json:"elapsed_ms,omitempty"`
	ModelVersion uint64            `json:"model_version,omitempty"`
	TraceID      string            `json:"trace_id,omitempty"`
	Code         int               `json:"code,omitempty"` // error events: HTTP-style class
	Error        string            `json:"error,omitempty"`
	Summary      *StreamSummary    `json:"summary,omitempty"`
}

// StreamTrackSummary is one track's whole-stream identity record. Frame
// indices count processed frames (frames that produced a frame event).
// MaxGap is the longest run of processed frames the track survived without
// an observation — a track that outlived an occlusion shows a positive gap.
type StreamTrackSummary struct {
	ID           int            `json:"id"`
	FirstFrame   int            `json:"first_frame"`
	LastFrame    int            `json:"last_frame"`
	Observations int            `json:"observations"`
	MaxGap       int            `json:"max_gap"`
	Emotions     map[string]int `json:"emotions,omitempty"` // per-frame dominant-emotion counts
	Dominant     string         `json:"dominant_emotion,omitempty"`
}

// StreamSummary is the final event's payload: throughput, per-frame latency
// quantiles and every track the stream ever created.
type StreamSummary struct {
	Schema    string               `json:"schema"`
	Frames    int                  `json:"frames"`
	Errors    int                  `json:"errors"`
	Degraded  int                  `json:"degraded"`
	FPS       float64              `json:"fps"`
	P50MS     float64              `json:"p50_ms"`
	P99MS     float64              `json:"p99_ms"`
	Tracks    []StreamTrackSummary `json:"tracks"`
	ElapsedMS float64              `json:"elapsed_ms"`
}

// trackBundle is one track's temporal identity memory: every matched
// appearance hypervector is majority-bundled, so the bundle converges on the
// identity's stable signature while per-frame noise cancels — the same
// robustness argument as the classifier's class accumulators, applied over
// time instead of over a training set.
type trackBundle struct {
	acc    *hv.Accumulator
	first  *hv.Vector // deterministic tie-break for the majority sign
	counts []int      // per-frame dominant emotion class counts
}

// streamState is one connection's tracking state. The HTTP handler owns it
// except while a frame job is in flight on the dispatcher; the handler
// submits the next frame only after reading the previous result, so
// ownership alternates without locks.
type streamState struct {
	tracker *track.Tracker
	bundles map[int]*trackBundle

	// Handler-side bookkeeping for the summary.
	start     time.Time
	frames    int
	errors    int
	degraded  int
	latencies []time.Duration
}

func (s *Server) newStreamState() *streamState {
	return &streamState{
		// The tracker seed derives from the pipeline seed, so two replicas
		// of the same config assign identical IDs to identical streams.
		tracker: track.New(s.cfg.Track, s.cfg.Pipeline.Config().Seed^0x57e4),
		bundles: map[int]*trackBundle{},
		start:   time.Now(),
	}
}

// readFrame reads one length-prefixed frame. io.EOF means the stream ended
// cleanly (EOF at a prefix boundary or an explicit zero length); any other
// error means the framing is broken and the stream cannot resync.
func readFrame(br *bufio.Reader, maxBytes int64) ([]byte, error) {
	line, err := br.ReadString('\n')
	if err == io.EOF && strings.TrimSpace(line) == "" {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("read frame length: %v", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("frame length %q: want a non-negative decimal", strings.TrimSpace(line))
	}
	if n == 0 {
		return nil, io.EOF
	}
	if int64(n) > maxBytes {
		return nil, fmt.Errorf("frame length %d exceeds limit %d", n, maxBytes)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("read %d-byte frame: %v", n, err)
	}
	return buf, nil
}

// WriteFrame writes one frame of the /stream wire format. CloseFrames ends
// the stream explicitly (useful when the transport cannot signal EOF).
func WriteFrame(w io.Writer, pgm []byte) error {
	if _, err := fmt.Fprintf(w, "%d\n", len(pgm)); err != nil {
		return err
	}
	_, err := w.Write(pgm)
	return err
}

// CloseFrames writes the explicit end-of-stream marker.
func CloseFrames(w io.Writer) error {
	_, err := io.WriteString(w, "0\n")
	return err
}

// streamErrEvent maps a frame-level failure to its event. A tracker
// *DetectionError is a client-class problem (400): the tracker rejected the
// frame unchanged, so the stream continues. Anything else is a server fault.
func streamErrEvent(err error) *StreamEvent {
	var det *track.DetectionError
	if errors.As(err, &det) {
		return &StreamEvent{Type: "error", Code: http.StatusBadRequest, Error: err.Error()}
	}
	return &StreamEvent{Type: "error", Code: http.StatusInternalServerError, Error: err.Error()}
}

// emotionName resolves an emotion class index to its label.
func (s *Server) emotionName(i int) string {
	if s.cfg.Emotion != nil && s.cfg.Emotion.K == int(dataset.NumEmotions) {
		return dataset.Emotion(i).String()
	}
	return "class" + strconv.Itoa(i)
}

// bundleEmotion folds one matched appearance into the track's temporal
// bundle and returns the bundle's current dominant emotion. Dispatcher only.
func (s *Server) bundleEmotion(st *streamState, id int, f *hv.Vector) string {
	b := st.bundles[id]
	if b == nil {
		b = &trackBundle{
			acc:    hv.NewAccumulator(f.D()),
			first:  f.Clone(),
			counts: make([]int, s.cfg.Emotion.K),
		}
		st.bundles[id] = b
	}
	b.acc.Add(f)
	bundled, _ := b.acc.Sign(b.first)
	scores := s.cfg.Emotion.Scores(bundled)
	best := 0
	for c, sc := range scores {
		if sc > scores[best] {
			best = c
		}
	}
	b.counts[best]++
	return s.emotionName(best)
}

// runStream executes one stream frame on the dispatcher: sweep under the
// frame deadline, extract an appearance hypervector per box, step the
// tracker, optionally update emotion bundles. Errors that leave the tracker
// untouched come back as error events, not failures, so one bad frame never
// kills a stream.
func (s *Server) runStream(j *job) {
	st := j.stream
	if j.tr != nil {
		j.tr.AddSpan("queue_wait", j.enq, time.Now())
	}
	scorer, version, err := s.scorerFor(j)
	if err != nil {
		j.resp <- result{err: err}
		return
	}
	ctx := trace.NewContext(j.ctx, j.tr)
	boxes, stats, err := detect.Sweep(ctx, j.img, scorer, s.cfg.DetectParams)
	if err != nil {
		j.resp <- result{err: err}
		return
	}

	// One appearance hypervector per box: crop (edge-clamped) and run the
	// full feature front-end. Content-hash reseeding keeps this a pure
	// function of the crop, which is what makes stream replays byte-equal.
	type hit struct {
		score float64
		feat  *hv.Vector
	}
	sp := j.tr.StartSpan("track")
	feats := make(map[[4]int]hit, len(boxes))
	dets := make([]track.Detection, 0, len(boxes))
	for _, b := range boxes {
		if b.Score < s.cfg.MinTrackScore {
			continue
		}
		crop := j.img.Crop(b.X0, b.Y0, b.X1-b.X0, b.Y1-b.Y0)
		f := s.cfg.Pipeline.Feature(crop)
		box := [4]int{b.X0, b.Y0, b.X1, b.Y1}
		dets = append(dets, track.Detection{Box: box, Feature: f})
		feats[box] = hit{b.Score, f}
	}
	touched, serr := st.tracker.StepErr(dets)
	if serr != nil {
		sp.End()
		j.resp <- result{event: streamErrEvent(serr), stats: stats, version: version}
		return
	}
	evTracks := make([]StreamTrackJSON, 0, len(touched))
	stepped := make(map[int]bool, len(touched))
	for _, tr := range touched {
		stepped[tr.ID] = true
		box := tr.Last()
		h := feats[box]
		tj := StreamTrackJSON{ID: tr.ID, Box: box, Score: h.score}
		if s.cfg.Emotion != nil && h.feat != nil {
			tj.Emotion = s.bundleEmotion(st, tr.ID, h.feat)
		}
		evTracks = append(evTracks, tj)
	}
	// Confirmed tracks the sweep missed this frame coast: the event carries
	// their held box so a one-frame dropout (or an occlusion the tracker is
	// riding out) never breaks the client-visible trajectory. Unconfirmed
	// tracks — a single detection so far — stay silent; one-shot false
	// positives should not echo for MaxMisses frames.
	for _, tr := range st.tracker.Active() {
		if stepped[tr.ID] || len(tr.Boxes) < 2 {
			continue
		}
		evTracks = append(evTracks, StreamTrackJSON{ID: tr.ID, Box: tr.Last(), Coasted: true})
	}
	sort.Slice(evTracks, func(a, b int) bool { return evTracks[a].ID < evTracks[b].ID })
	sp.End()
	if j.tr != nil {
		j.tr.SetAttr("model_version", strconv.FormatUint(version, 10))
	}
	j.resp <- result{
		event: &StreamEvent{
			Type:     "frame",
			Tracks:   evTracks,
			Degraded: stats.Degraded,
			Windows:  stats.Windows,
		},
		stats:   stats,
		version: version,
	}
}

// summary assembles the final event from the finished stream's state.
func (st *streamState) summary(s *Server) *StreamSummary {
	elapsed := time.Since(st.start)
	sum := &StreamSummary{
		Schema:    StreamSchema,
		Frames:    st.frames,
		Errors:    st.errors,
		Degraded:  st.degraded,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if elapsed > 0 {
		sum.FPS = float64(st.frames) / elapsed.Seconds()
	}
	sum.P50MS = durPercentile(st.latencies, 0.50)
	sum.P99MS = durPercentile(st.latencies, 0.99)
	for _, tr := range st.tracker.All() {
		ts := StreamTrackSummary{
			ID:           tr.ID,
			FirstFrame:   tr.Frames[0],
			LastFrame:    tr.Frames[len(tr.Frames)-1],
			Observations: len(tr.Frames),
		}
		for i := 1; i < len(tr.Frames); i++ {
			if gap := tr.Frames[i] - tr.Frames[i-1] - 1; gap > ts.MaxGap {
				ts.MaxGap = gap
			}
		}
		if b := st.bundles[tr.ID]; b != nil {
			ts.Emotions = map[string]int{}
			best := 0
			for c, n := range b.counts {
				if n == 0 {
					continue
				}
				ts.Emotions[s.emotionName(c)] = n
				if n > b.counts[best] {
					best = c
				}
			}
			if len(ts.Emotions) > 0 {
				ts.Dominant = s.emotionName(best)
			}
		}
		sum.Tracks = append(sum.Tracks, ts)
	}
	sort.Slice(sum.Tracks, func(a, b int) bool { return sum.Tracks[a].ID < sum.Tracks[b].ID })
	return sum
}

// durPercentile returns the p-th percentile of the latencies in ms.
func durPercentile(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// handleStream serves POST /stream. The response commits to 200 before the
// first frame is read — per-frame failures after that are in-band error
// events, the only honest option once NDJSON is flowing.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST a length-prefixed PGM frame stream")
		return
	}
	ten, reg, ok := s.route(w, r)
	if !ok {
		return
	}
	frameDeadline := s.cfg.FrameDeadline
	if q := r.URL.Query().Get("frame_deadline"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			writeErr(w, http.StatusBadRequest, "frame_deadline %q: want a positive duration like 100ms", q)
			return
		}
		if d > s.cfg.MaxDeadline {
			d = s.cfg.MaxDeadline
		}
		frameDeadline = d
	}
	obsStreamReqs.Inc()
	st := s.newStreamState()
	// Events interleave with body reads, so the HTTP/1 server must not
	// close the request body on the first response write. (HTTP/2 is
	// always full-duplex; there the call is a no-op error we can ignore.)
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	emit := func(ev *StreamEvent) {
		if ev.Type == "error" {
			st.errors++
			obsStreamErrors.Inc()
		}
		writeNDJSON(w, ev)
		flush()
	}

	// The body is intentionally not length-capped as a whole — streams are
	// long-lived by design; each frame is capped by MaxBodyBytes instead.
	br := bufio.NewReader(r.Body)
	for frame := 0; ; frame++ {
		data, err := readFrame(br, s.cfg.MaxBodyBytes)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Broken framing cannot resync: report and end the stream.
			emit(&StreamEvent{Type: "error", Frame: frame, Code: http.StatusBadRequest, Error: err.Error()})
			break
		}
		start := time.Now()
		tr := trace.New("stream", "")
		img, derr := imgproc.ReadPGM(bytes.NewReader(data))
		if derr != nil {
			tr.SetError(true)
			tr.Finish()
			emit(&StreamEvent{Type: "error", Frame: frame, Code: http.StatusBadRequest,
				Error: fmt.Sprintf("decode frame: %v", derr), TraceID: tr.ID()})
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), frameDeadline)
		j := &job{kind: kindStream, img: img, reg: reg, tenant: ten, ctx: ctx, resp: make(chan result, 1),
			tr: tr, enq: time.Now(), stream: st}
		if !s.enqueue(j) {
			cancel()
			obsRejected.Inc()
			tr.SetError(true)
			tr.Finish()
			emit(&StreamEvent{Type: "error", Frame: frame, Code: http.StatusServiceUnavailable,
				Error: "queue full", TraceID: tr.ID()})
			continue
		}
		res := <-j.resp
		cancel()
		lat := time.Since(start)
		obsStreamFrames.Inc()
		failed := res.err != nil || (res.event != nil && res.event.Type == "error")
		tr.SetError(failed)
		if res.event != nil && res.event.Degraded {
			tr.SetDegraded(true)
		}
		tr.Finish()
		s.sloStream.Observe(lat, failed)
		obsWinLatency.Observe(lat.Seconds())
		if res.err != nil {
			emit(&StreamEvent{Type: "error", Frame: frame, Code: http.StatusInternalServerError,
				Error: res.err.Error(), TraceID: tr.ID()})
			continue
		}
		ev := res.event
		ev.Frame = frame
		ev.ElapsedMS = float64(lat) / float64(time.Millisecond)
		ev.ModelVersion = res.version
		ev.TraceID = tr.ID()
		if ev.Type == "frame" {
			st.frames++
			if ev.Degraded {
				st.degraded++
			}
			st.latencies = append(st.latencies, lat)
		}
		emit(ev)
	}
	writeNDJSON(w, &StreamEvent{Type: "summary", Frame: st.frames, Summary: st.summary(s)})
	flush()
}

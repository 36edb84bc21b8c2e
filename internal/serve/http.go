package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/obs"
	"hdface/internal/obs/trace"
	"hdface/internal/online"
	"hdface/internal/registry"
	"hdface/internal/tenant"
)

// PredictResponse is the /predict reply: the argmax label, the per-class
// cosine similarities (identical to Pipeline.Predict/Scores against the
// live model), the model version that scored the request, and — when
// online learning is enabled — a request ID a later /feedback correction
// can reference.
type PredictResponse struct {
	Label        int       `json:"label"`
	Scores       []float64 `json:"scores"`
	ModelVersion uint64    `json:"model_version"`
	RequestID    string    `json:"request_id,omitempty"`
	// Tenant names the tenant whose live model scored the request (empty
	// for the registry's single-tenant path); ModelVersion is then a
	// version in that tenant's private lineage.
	Tenant string `json:"tenant,omitempty"`
	// TraceID names the request's trace in /debug/traces (also echoed in
	// the X-Hdface-Trace response header).
	TraceID string `json:"trace_id,omitempty"`
}

// BoxJSON is one detection in image coordinates.
type BoxJSON struct {
	X0    int     `json:"x0"`
	Y0    int     `json:"y0"`
	X1    int     `json:"x1"`
	Y1    int     `json:"y1"`
	Score float64 `json:"score"`
	Scale float64 `json:"scale"`
}

// DetectResponse is the /detect reply. Degraded reports that the request's
// deadline expired mid-sweep and the boxes are the anytime best-so-far set.
type DetectResponse struct {
	Boxes        []BoxJSON `json:"boxes"`
	Degraded     bool      `json:"degraded"`
	Windows      int64     `json:"windows"`
	Levels       int       `json:"levels"`
	ModelVersion uint64    `json:"model_version"`
	// Tenant names the tenant whose live model scored the sweep (empty
	// for the registry's single-tenant path).
	Tenant string `json:"tenant,omitempty"`
	// TraceID names the request's trace in /debug/traces, where the
	// per-level sweep spans explain a degraded or slow response.
	TraceID string `json:"trace_id,omitempty"`
}

// FeedbackResponse is the /feedback reply. For a tenant'd sample,
// NewVersion is non-zero when the sample completed a feedback batch and a
// refinement round promoted a new version of that tenant's model.
type FeedbackResponse struct {
	Status     string `json:"status"`
	Tenant     string `json:"tenant,omitempty"`
	NewVersion uint64 `json:"new_version,omitempty"`
}

// ModelsResponse is the GET /models reply.
type ModelsResponse struct {
	Versions []registry.Info `json:"versions"`
	Live     uint64          `json:"live"`
	Online   *online.Stats   `json:"online,omitempty"`
}

// DeltaInfo summarises the replica's local feedback accumulator for
// /healthz — enough for a router (or operator) to see whether the
// feedback plane is flowing without pulling the full delta.
type DeltaInfo struct {
	Replica string `json:"replica"`
	Base    string `json:"base"` // model fingerprint, hex
	Epoch   uint64 `json:"epoch"`
	Seq     uint64 `json:"seq"`
	Samples int64  `json:"samples"`
}

// HealthResponse is the /healthz reply. Status is "ok" until the
// admission queue reaches saturatedAt occupancy, then "saturated" — still
// serving, but a router should prefer other replicas.
type HealthResponse struct {
	Status      string  `json:"status"`
	Mode        string  `json:"mode"`
	D           int     `json:"d"`
	Trained     bool    `json:"trained"`
	QueueDepth  int     `json:"queue_depth"`
	QueueCap    int     `json:"queue_cap"`
	Saturation  float64 `json:"saturation"`
	LiveVersion uint64  `json:"live_version"`
	Versions    int     `json:"versions"`
	Online      bool    `json:"online"`
	// Tenants counts tenants resident in the tenant store (0 when
	// multi-tenancy is disabled).
	Tenants int        `json:"tenants,omitempty"`
	Delta   *DeltaInfo `json:"delta,omitempty"`
}

// saturatedAt is the queue occupancy above which /healthz reports
// "saturated" instead of "ok".
const saturatedAt = 0.9

// errorJSON is every non-2xx body.
type errorJSON struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP surface: POST /predict, POST /detect,
// POST /stream (NDJSON tracking over a PGM frame sequence — see stream.go),
// POST /feedback, GET /models, POST /models/promote, POST /models/rollback,
// GET /healthz, GET /metrics, the introspection pair GET /debug/traces
// and GET /debug/slo, the fleet feedback plane (GET /delta,
// GET /models/export, POST /models/push — see fleet.go), and — when a
// tenant store is configured — GET /tenants plus POST /tenants/seed.
// /predict, /detect, /stream and /feedback all accept a tenant ID via the
// X-Hdface-Tenant header or ?tenant= query parameter to score against
// (and learn into) that tenant's private model lineage.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/detect", s.handleDetect)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/feedback", s.handleFeedback)
	mux.HandleFunc("/tenants", s.handleTenants)
	mux.HandleFunc("/tenants/seed", s.handleTenantSeed)
	mux.HandleFunc("/models", s.handleModels)
	mux.HandleFunc("/models/promote", s.handlePromote)
	mux.HandleFunc("/models/rollback", s.handleRollback)
	mux.HandleFunc("/models/push", s.handlePush)
	mux.HandleFunc("/models/export", s.handleExport)
	mux.HandleFunc("/delta", s.handleDelta)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.HandleFunc("/debug/slo", s.handleSLO)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WriteTo(w)
	})
	return mux
}

// handleTraces serves the collected traces as hdface-trace/v1 JSON.
// Query parameters: filter=slow,error,degraded restricts to the
// tail-retention sets (comma-separable; default recent), kind=predict|
// detect|... and stage=<span name> narrow further, n= caps the count.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /debug/traces")
		return
	}
	var f trace.Filter
	for _, part := range strings.Split(r.URL.Query().Get("filter"), ",") {
		switch strings.TrimSpace(part) {
		case "":
		case "slow":
			f.Slow = true
		case "error", "errors":
			f.Errors = true
		case "degraded":
			f.Degraded = true
		default:
			writeErr(w, http.StatusBadRequest, "filter %q: want slow, error or degraded", part)
			return
		}
	}
	f.Kind = r.URL.Query().Get("kind")
	f.Stage = r.URL.Query().Get("stage")
	if nq := r.URL.Query().Get("n"); nq != "" {
		n, err := strconv.Atoi(nq)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "n %q: want a positive integer", nq)
			return
		}
		f.Limit = n
	}
	writeJSON(w, http.StatusOK, trace.Snapshot(f))
}

// SLOResponse is the GET /debug/slo reply: every registered SLO plus the
// windowed latency quantiles, evaluated as of the request.
type SLOResponse struct {
	Schema    string                          `json:"schema"`
	SLOs      map[string]obs.SLOSnapshot      `json:"slos"`
	Quantiles map[string]obs.QuantileSnapshot `json:"quantiles"`
}

// SLOSchema identifies the /debug/slo JSON layout.
const SLOSchema = "hdface-slo/v1"

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /debug/slo")
		return
	}
	writeJSON(w, http.StatusOK, SLOResponse{
		Schema:    SLOSchema,
		SLOs:      obs.SLOSnapshots(),
		Quantiles: obs.QuantileSnapshots(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	if code >= 400 && code < 500 {
		obsBadRequests.Inc()
	}
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// readImage decodes the request body as a PGM raster under the body limit.
func (s *Server) readImage(w http.ResponseWriter, r *http.Request) (*imgproc.Image, bool) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST a PGM image")
		return nil, false
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	img, err := imgproc.ReadPGM(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "decode image: %v", err)
		return nil, false
	}
	return img, true
}

// retryAfterSecs estimates when a shed request is worth retrying: the
// current queue drains at roughly one batch-or-job per FlushInterval, so
// the backlog ahead of a rejected request bounds its wait. Clamped to at
// least 1s — the header's resolution — so clients never busy-spin.
func (s *Server) retryAfterSecs() int {
	wait := time.Duration(len(s.queue)+1) * s.cfg.FlushInterval
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shed rejects a request with 503 plus a Retry-After hint derived from the
// queue backlog, the signal a well-behaved client (and the fleet router's
// load shedder) keys its backoff on.
func (s *Server) shed(w http.ResponseWriter, format string, args ...any) {
	obsRejected.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
	writeErr(w, http.StatusServiceUnavailable, format, args...)
}

// submit admits the job and waits for its result.
func (s *Server) submit(w http.ResponseWriter, j *job) (result, bool) {
	if !s.enqueue(j) {
		s.shed(w, "queue full, retry later")
		return result{}, false
	}
	return <-j.resp, true
}

// TenantHeader names the request header carrying a tenant ID. The
// ?tenant= query parameter is the equivalent for clients that cannot set
// headers; the header wins when both are present.
const TenantHeader = "X-Hdface-Tenant"

// tenantOf extracts and validates the request's tenant ID. ok=false means
// an error response was already written; an empty ID with ok=true is the
// single-tenant (registry) path.
func (s *Server) tenantOf(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.Header.Get(TenantHeader)
	if id == "" {
		id = r.URL.Query().Get("tenant")
	}
	if id == "" {
		return "", true
	}
	if s.cfg.Tenants == nil {
		writeErr(w, http.StatusNotImplemented, "multi-tenancy is disabled")
		return "", false
	}
	if err := tenant.ValidID(id); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return "", false
	}
	return id, true
}

// lineage resolves a request's model lineage: the named tenant's registry
// in the tenant store, or the server's registry when the request names no
// tenant. This is the only place the two paths differ on the way in.
func (s *Server) lineage(ten string) (*registry.Registry, error) {
	if ten == "" {
		return s.reg, nil
	}
	return s.cfg.Tenants.Registry(ten)
}

// route extracts the request's tenant and resolves its lineage, which must
// have a live model. ok=false means an error response was already written.
func (s *Server) route(w http.ResponseWriter, r *http.Request) (ten string, reg *registry.Registry, ok bool) {
	if ten, ok = s.tenantOf(w, r); !ok {
		return "", nil, false
	}
	reg, err := s.lineage(ten)
	if err == nil && reg.Live() == nil {
		err = registry.ErrNoLive
	}
	if err != nil {
		writeErr(w, errCode(err), "%v", err)
		return "", nil, false
	}
	return ten, reg, true
}

// errCode maps lineage errors to HTTP statuses: an unknown tenant is the
// caller's 404, a lineage with no live model is a 409, a bad sample is a
// 400, the tenant limit is the server refusing to store more lineages.
func errCode(err error) int {
	switch {
	case errors.Is(err, tenant.ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrNoLive):
		return http.StatusConflict
	case errors.Is(err, tenant.ErrBadFeedback):
		return http.StatusBadRequest
	case errors.Is(err, tenant.ErrTooMany):
		return http.StatusInsufficientStorage
	}
	return http.StatusInternalServerError
}

// startTrace mints (or inherits, via the X-Hdface-Trace request header) a
// trace for one request and echoes its ID in the response header so callers
// can correlate the reply with /debug/traces. The returned finish closure
// seals the trace and feeds the request's SLO and windowed latency
// quantile; call it exactly once, on every exit path. With tracing
// disabled tr is nil and everything here is a no-op.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request, kind string, slo *obs.SLO) (tr *trace.Trace, finish func(failed bool)) {
	start := time.Now()
	tr = trace.New(kind, r.Header.Get(trace.Header))
	if tr != nil {
		w.Header().Set(trace.Header, tr.ID())
	}
	return tr, func(failed bool) {
		lat := time.Since(start)
		tr.SetError(failed)
		tr.Finish()
		slo.Observe(lat, failed)
		obsWinLatency.Observe(lat.Seconds())
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ten, reg, ok := s.route(w, r)
	if !ok {
		return
	}
	img, ok := s.readImage(w, r)
	if !ok {
		return
	}
	obsPredictReqs.Inc()
	tr, finish := s.startTrace(w, r, "predict", s.sloPredict)
	j := &job{kind: kindPredict, img: img, reg: reg, tenant: ten, resp: make(chan result, 1), tr: tr, enq: time.Now()}
	res, ok := s.submit(w, j)
	if !ok {
		finish(true)
		return
	}
	obsLatency.Observe(time.Since(start).Seconds())
	if res.err != nil {
		finish(true)
		writeErr(w, errCode(res.err), "predict: %v", res.err)
		return
	}
	finish(false)
	writeJSON(w, http.StatusOK, PredictResponse{
		Label:        res.label,
		Scores:       res.scores,
		ModelVersion: res.version,
		RequestID:    res.reqID,
		Tenant:       res.tenant,
		TraceID:      tr.ID(),
	})
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ten, reg, ok := s.route(w, r)
	if !ok {
		return
	}
	img, ok := s.readImage(w, r)
	if !ok {
		return
	}
	deadline := s.cfg.MaxDeadline
	if q := r.URL.Query().Get("deadline"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			writeErr(w, http.StatusBadRequest, "deadline %q: want a positive duration like 250ms", q)
			return
		}
		if d < deadline {
			deadline = d
		}
	}
	obsDetectReqs.Inc()
	tr, finish := s.startTrace(w, r, "detect", s.sloDetect)
	// The budget starts now, before queueing: a request stuck behind a long
	// queue degrades instead of consuming its full budget late.
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	j := &job{kind: kindDetect, img: img, reg: reg, tenant: ten, ctx: ctx, resp: make(chan result, 1), tr: tr, enq: time.Now()}
	res, ok := s.submit(w, j)
	if !ok {
		finish(true)
		return
	}
	obsLatency.Observe(time.Since(start).Seconds())
	if res.err != nil {
		finish(true)
		writeErr(w, errCode(res.err), "detect: %v", res.err)
		return
	}
	finish(false)
	boxes := make([]BoxJSON, len(res.boxes))
	for i, b := range res.boxes {
		boxes[i] = BoxJSON{X0: b.X0, Y0: b.Y0, X1: b.X1, Y1: b.Y1, Score: b.Score, Scale: b.Scale}
	}
	writeJSON(w, http.StatusOK, DetectResponse{
		Boxes:        boxes,
		Degraded:     res.stats.Degraded,
		Windows:      res.stats.Windows,
		Levels:       res.stats.Levels,
		ModelVersion: res.version,
		Tenant:       res.tenant,
		TraceID:      tr.ID(),
	})
}

// feedbackJSON is the request-ID correction form of POST /feedback.
type feedbackJSON struct {
	RequestID string `json:"request_id"`
	Label     int    `json:"label"`
}

// handleFeedback ingests one labelled sample for online learning. Two
// forms: a PGM body with ?label=N (the image's feature is extracted on the
// dispatcher), or a JSON {"request_id","label"} correction referencing a
// recent /predict (the stored feature is reused — no image resend and no
// dispatcher round-trip). A tenant'd sample joins that tenant's private
// batch in the tenant store instead of the shared online trainer, and the
// reply reports the new version when the sample completed a refinement
// round.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST feedback")
		return
	}
	ten, reg, ok := s.route(w, r)
	if !ok {
		return
	}
	if ten == "" && s.trainer == nil {
		writeErr(w, http.StatusNotImplemented, "online learning is disabled")
		return
	}
	_, m, err := reg.LiveModel()
	if err != nil {
		writeErr(w, errCode(err), "%v", err)
		return
	}
	var f *hv.Vector
	var label int
	if r.Header.Get("Content-Type") == "application/json" {
		var fb feedbackJSON
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&fb); err != nil {
			writeErr(w, http.StatusBadRequest, "decode feedback: %v", err)
			return
		}
		if f, ok = s.lookupRecent(fb.RequestID); !ok {
			writeErr(w, http.StatusNotFound, "request_id %q unknown or expired", fb.RequestID)
			return
		}
		label = fb.Label
	} else {
		labelStr := r.URL.Query().Get("label")
		if label, err = strconv.Atoi(labelStr); err != nil {
			writeErr(w, http.StatusBadRequest, "label %q: want an integer class", labelStr)
			return
		}
	}
	if label < 0 || label >= m.K {
		writeErr(w, http.StatusBadRequest, "label %d outside [0, %d)", label, m.K)
		return
	}
	var promoted uint64
	if f != nil {
		// The stored feature needs no dispatcher: the learning loop
		// serialises the (possibly round-triggering) update itself.
		promoted, err = s.learn(ten, f, label)
	} else {
		img, ok := s.readImage(w, r)
		if !ok {
			return
		}
		j := &job{kind: kindFeedback, img: img, tenant: ten, label: label, resp: make(chan result, 1)}
		res, ok := s.submit(w, j)
		if !ok {
			return
		}
		promoted, err = res.promoted, res.err
	}
	if err != nil {
		if ten == "" {
			s.shed(w, "feedback: %v", err) // the trainer's queue is full or closed
		} else {
			writeErr(w, errCode(err), "%v", err)
		}
		return
	}
	obsFeedbackReqs.Inc()
	writeJSON(w, http.StatusAccepted, FeedbackResponse{Status: "accepted", Tenant: ten, NewVersion: promoted})
}

// TenantsResponse is the GET /tenants reply: every tenant in ID order
// plus store-wide residency totals.
type TenantsResponse struct {
	Tenants []tenant.Info `json:"tenants"`
	Stats   tenant.Stats  `json:"stats"`
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Tenants == nil {
		writeErr(w, http.StatusNotImplemented, "multi-tenancy is disabled")
		return
	}
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /tenants")
		return
	}
	infos := s.cfg.Tenants.Tenants()
	if infos == nil {
		infos = []tenant.Info{}
	}
	writeJSON(w, http.StatusOK, TenantsResponse{Tenants: infos, Stats: s.cfg.Tenants.Stats()})
}

// TenantSeedResponse is the POST /tenants/seed reply.
type TenantSeedResponse struct {
	Tenant string `json:"tenant"`
	// Version is the first version of the tenant's new lineage; Base is
	// the registry version it was copied from.
	Version uint64 `json:"version"`
	Base    uint64 `json:"base_version"`
}

// handleTenantSeed creates (or re-seeds) a tenant from the registry's live
// model: POST /tenants/seed?tenant=ID. This is how a tenant is born — its
// lineage starts as a copy of the shared base model and diverges through
// its own /feedback stream.
func (s *Server) handleTenantSeed(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Tenants == nil {
		writeErr(w, http.StatusNotImplemented, "multi-tenancy is disabled")
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /tenants/seed?tenant=ID")
		return
	}
	ten, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	if ten == "" {
		writeErr(w, http.StatusBadRequest, "tenant ID required (X-Hdface-Tenant header or ?tenant=)")
		return
	}
	live := s.reg.Live()
	if live == nil {
		writeErr(w, http.StatusConflict, "no live model to seed from")
		return
	}
	var id uint64
	m, err := live.Model()
	if err == nil {
		id, err = s.cfg.Tenants.Seed(ten, s.cfg.Pipeline.Config(), m)
	}
	if err != nil {
		writeErr(w, errCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, TenantSeedResponse{Tenant: ten, Version: id, Base: live.ID})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /models")
		return
	}
	resp := ModelsResponse{Versions: s.reg.List()}
	if v := s.reg.Live(); v != nil {
		resp.Live = v.ID
	}
	if s.trainer != nil {
		st := s.trainer.Stats()
		resp.Online = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /models/promote?version=N")
		return
	}
	vq := r.URL.Query().Get("version")
	id, err := strconv.ParseUint(vq, 10, 64)
	if err != nil || id == 0 {
		writeErr(w, http.StatusBadRequest, "version %q: want a positive integer", vq)
		return
	}
	if err := s.reg.Promote(id); err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ModelsResponse{Versions: s.reg.List(), Live: id})
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /models/rollback")
		return
	}
	id, err := s.reg.Rollback()
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ModelsResponse{Versions: s.reg.List(), Live: id})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cfg := s.cfg.Pipeline.Config()
	live := s.reg.Live()
	depth := len(s.queue)
	h := HealthResponse{
		Status:     "ok",
		Mode:       cfg.Mode.String(),
		D:          cfg.D,
		Trained:    live != nil,
		QueueDepth: depth,
		QueueCap:   cap(s.queue),
		Saturation: float64(depth) / float64(cap(s.queue)),
		Versions:   len(s.reg.List()),
		Online:     s.trainer != nil,
	}
	if s.cfg.Tenants != nil {
		h.Tenants = s.cfg.Tenants.Len()
	}
	if h.Saturation >= saturatedAt {
		h.Status = "saturated"
	}
	if live != nil {
		h.LiveVersion = live.ID
	}
	if s.trainer != nil {
		if d := s.trainer.Delta(); d != nil {
			h.Delta = &DeltaInfo{
				Replica: d.Replica,
				Base:    fmt.Sprintf("%016x", d.Base),
				Epoch:   d.Epoch,
				Seq:     d.Seq,
				Samples: d.Samples(),
			}
		}
	}
	writeJSON(w, http.StatusOK, h)
}

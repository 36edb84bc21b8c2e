package serve

// The fleet feedback plane: three endpoints a router uses to run
// distributed online learning across replicas. GET /delta exports the
// replica's local feedback accumulator, GET /models/export ships the live
// model as an hdface-model/v1 snapshot, and POST /models/push offers a
// (merged) candidate to the replica's adoption gate. All three are
// replica-to-router surface, not client surface — but they are safe to
// expose: deltas and snapshots carry no raw images, and push is gated.

import (
	"fmt"
	"net/http"

	"hdface"
	"hdface/internal/obs"
	"hdface/internal/registry"
)

var (
	obsDeltaPulls = obs.NewCounter("hdface_serve_delta_pulls_total",
		"GET /delta exports of the local feedback accumulator")
	obsModelPushes = obs.NewCounter("hdface_serve_model_pushes_total",
		"POST /models/push candidates offered to the adoption gate")
	obsModelExports = obs.NewCounter("hdface_serve_model_exports_total",
		"GET /models/export snapshots served")
)

// fingerprintHeader carries the model content fingerprint on
// /models/export replies so a router can key merge epochs without
// decoding the snapshot.
const fingerprintHeader = "X-Hdface-Model-Fingerprint"

// versionHeader carries the (replica-local) registry version on
// /models/export replies.
const versionHeader = "X-Hdface-Model-Version"

// PushResponse is the POST /models/push reply.
type PushResponse struct {
	// Outcome is "promoted", "no_holdout" (adopted without held-out
	// evidence) or, with status 409, "gate_rejected".
	Outcome string `json:"outcome"`
	Version uint64 `json:"version,omitempty"`
}

// handleDelta streams the local feedback accumulator in its binary wire
// form. An empty accumulator (no feedback yet) is 204; a server without a
// trainer has no feedback plane at all, 501.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /delta")
		return
	}
	if s.trainer == nil {
		writeErr(w, http.StatusNotImplemented, "online learning is disabled")
		return
	}
	d := s.trainer.Delta()
	if d == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	obsDeltaPulls.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := d.Encode(w); err != nil {
		// Headers are gone; all we can do is drop the connection early.
		return
	}
}

// handleExport ships the live model as a snapshot, fingerprint and
// version in headers, so a router can rebase its merge on exactly what
// this replica serves.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /models/export")
		return
	}
	live := s.reg.Live()
	if live == nil {
		writeErr(w, http.StatusConflict, "no live model")
		return
	}
	m, err := live.Model()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	cfg, ok := s.reg.Config()
	if !ok {
		cfg = s.cfg.Pipeline.Config()
	}
	obsModelExports.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(versionHeader, fmt.Sprintf("%d", live.ID))
	w.Header().Set(fingerprintHeader, fmt.Sprintf("%016x", m.Fingerprint()))
	if err := hdface.EncodeSnapshot(w, cfg, m); err != nil {
		return // mid-stream failure; connection drop is the only signal left
	}
}

// handlePush accepts an hdface-model/v1 snapshot as a candidate model.
// With a trainer the candidate must pass the adoption gate (shadow
// evaluation against the local holdout, AdoptEpsilon tolerance) — a
// rejection is 409 with outcome gate_rejected, deliberately not an error:
// the gate doing its job is a success for the fleet. Without a trainer
// the push promotes directly (an operator shipping a model to a plain
// serving replica).
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /models/push")
		return
	}
	cfg, model, err := hdface.DecodeSnapshot(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "decode snapshot: %v", err)
		return
	}
	if err := registry.Compatible(cfg, s.cfg.Pipeline.Config()); err != nil {
		writeErr(w, http.StatusConflict, "pushed model incompatible: %v", err)
		return
	}
	obsModelPushes.Inc()
	if s.trainer == nil {
		id, err := s.reg.Put(cfg, model)
		if err == nil {
			err = s.reg.Promote(id)
		}
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "push: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, PushResponse{Outcome: "promoted", Version: id})
		return
	}
	id, outcome, err := s.trainer.Adopt(cfg, model)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "push: %v", err)
		return
	}
	if outcome == "gate_rejected" {
		writeJSON(w, http.StatusConflict, PushResponse{Outcome: outcome})
		return
	}
	writeJSON(w, http.StatusOK, PushResponse{Outcome: outcome, Version: id})
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"mime"
	"net/http"
	"strings"
	"time"
)

// Server is the HTTP front-end over a Router: POST /predict plus the
// operational surface (/models, /healthz, /readyz, /stats). It maps the
// router's and batchers' typed outcomes onto HTTP semantics:
//
//	ErrBadInput / malformed body        → 400 (typed code in the body)
//	ErrUnknownModel                     → 404
//	non-POST /predict                   → 405 + Allow
//	ErrQueueFull (backpressure)         → 429 + Retry-After
//	ErrShuttingDown / ErrAllDraining    → 503 (+ honest Retry-After)
//	ErrDeadline / context deadline      → 504
type Server struct {
	rt  *Router
	mux *http.ServeMux
}

// NewServer wraps rt in the HTTP front-end.
func NewServer(rt *Router) *Server {
	s := &Server{rt: rt, mux: http.NewServeMux()}
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.HandleFunc("/models", s.handleModels)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// NewSingleServer wraps one batcher in a single-model router and fronts it —
// the pre-router single-instance wiring, kept for embedded and test use.
// The model is named "default" and /predict requests may omit Model.
func NewSingleServer(b *Batcher) *Server {
	rt := NewRouter()
	inst := &Instance{name: "default", eng: b.eng, b: b, j: b.cfg.Journal}
	if err := rt.AddModel("default", inst); err != nil {
		panic(err) // unreachable: fresh router, one well-formed model
	}
	return NewServer(rt)
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler { return s.mux }

// PredictRequest is the /predict request body.
type PredictRequest struct {
	// Model names the target model. Optional when the router fronts exactly
	// one model; required (404 otherwise) when it fronts several.
	Model string `json:"model,omitempty"`
	// Input is one feature vector of the model's input width.
	Input []float64 `json:"input"`
	// DeadlineMs, when positive, bounds the end-to-end budget; the server
	// derives a context deadline and admission control enforces it. A
	// budget past the largest time.Duration counts as no deadline.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

// PredictResponse is the /predict success body.
type PredictResponse struct {
	Model string `json:"model"`
	Class int    `json:"class"`
	// Degraded mirrors the health snapshot: true once BIST has masked
	// rows or faults are present, so callers can see they were served by
	// degraded hardware.
	Degraded bool `json:"degraded"`
}

// Machine-readable error codes carried in error responses, so clients can
// branch without parsing prose.
const (
	codeBadJSON      = "bad_json"
	codeBadMedia     = "unsupported_media_type"
	codeBadInput     = "bad_input"
	codeUnknownModel = "unknown_model"
	codeQueueFull    = "queue_full"
	codeAllDraining  = "all_draining"
	codeShuttingDown = "shutting_down"
	codeDeadline     = "deadline"
	codeInternal     = "internal"
	codeMethod       = "method_not_allowed"
)

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // response already committed
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed,
			errorResponse{Error: "POST only", Code: codeMethod})
		return
	}
	// An explicit non-JSON Content-Type is a typed 400 before the body is
	// read; an absent header is tolerated (curl-without-headers ergonomics).
	if ct := r.Header.Get("Content-Type"); ct != "" {
		media, _, err := mime.ParseMediaType(ct)
		if err != nil || (media != "application/json" && !strings.HasSuffix(media, "+json")) {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: "Content-Type must be application/json, got " + ct, Code: codeBadMedia})
			return
		}
	}
	var req PredictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: "bad JSON: " + err.Error(), Code: codeBadJSON})
		return
	}
	model := req.Model
	if model == "" {
		model = s.rt.DefaultModel()
	}
	ctx := r.Context()
	// A budget past the largest time.Duration (about 292 years) would wrap
	// negative in the conversion, so it is served without a deadline.
	if budget := req.DeadlineMs * float64(time.Millisecond); budget > 0 && budget < math.MaxInt64 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(budget))
		defer cancel()
	}
	class, err := s.rt.Submit(ctx, model, req.Input)
	if err != nil {
		status := httpStatus(err)
		if status == http.StatusTooManyRequests ||
			errors.Is(err, ErrAllDraining) {
			// Honest Retry-After: the model's own best-case wait estimate,
			// which for an all-draining model includes the smoothed
			// maintenance-window duration.
			secs := int(math.Ceil(s.rt.EstimateWait(model).Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", itoa(secs))
		}
		writeJSON(w, status, errorResponse{Error: err.Error(), Code: errorCode(err)})
		return
	}
	degraded := false
	for _, inst := range s.rt.Replicas(model) {
		if inst.Health().Degraded {
			degraded = true
			break
		}
	}
	writeJSON(w, http.StatusOK, PredictResponse{Model: model, Class: class, Degraded: degraded})
}

// httpStatus maps a Submit error onto its HTTP status.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadInput):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrAllDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// errorCode maps a Submit error onto its machine-readable code.
func errorCode(err error) string {
	switch {
	case errors.Is(err, ErrBadInput):
		return codeBadInput
	case errors.Is(err, ErrUnknownModel):
		return codeUnknownModel
	case errors.Is(err, ErrQueueFull):
		return codeQueueFull
	case errors.Is(err, ErrAllDraining):
		return codeAllDraining
	case errors.Is(err, ErrShuttingDown):
		return codeShuttingDown
	case errors.Is(err, ErrDeadline),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return codeDeadline
	default:
		return codeInternal
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// ModelInfo is one entry in the GET /models listing.
type ModelInfo struct {
	Name     string   `json:"name"`
	Replicas []string `json:"replicas"`
	Warm     int      `json:"warm"`     // replicas currently accepting and not draining
	Draining int      `json:"draining"` // replicas in or awaiting a maintenance window
	WaitMs   float64  `json:"estimated_wait_ms"`
}

// handleModels lists the served models with replica routing state.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed,
			errorResponse{Error: "GET only", Code: codeMethod})
		return
	}
	out := make([]ModelInfo, 0)
	for _, name := range s.rt.Models() {
		info := ModelInfo{
			Name:   name,
			WaitMs: float64(s.rt.EstimateWait(name)) / float64(time.Millisecond),
		}
		for _, inst := range s.rt.Replicas(name) {
			info.Replicas = append(info.Replicas, inst.Name())
			if inst.Draining() || !inst.Accepting() {
				info.Draining++
			} else {
				info.Warm++
			}
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is liveness: 200 while the process runs, even degraded.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 only when no model can take traffic —
// with replicas, one draining sibling does not flip readiness, because the
// router routes around it. "degraded" keeps serving (masked rows still
// classify) but tells the balancer some hardware took damage.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	models := s.rt.Models()
	ready, degraded := false, false
	for _, name := range models {
		for _, inst := range s.rt.Replicas(name) {
			if inst.Accepting() && !inst.Draining() {
				ready = true
			}
			if inst.Health().Degraded {
				degraded = true
			}
		}
	}
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	status := "ready"
	if degraded {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// handleStats exports the router snapshot: router-level ledger plus
// per-model, per-replica batcher snapshots and their aggregates.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.rt.Snapshot())
}

// ListenAndServe runs the HTTP server until ctx cancels (SIGINT/SIGTERM
// via signal.NotifyContext), then drains: the listener stops accepting,
// in-flight connections finish within grace, and every replica's batcher
// flushes its queue — past grace, in-flight batches hard-cancel at the
// next node checkpoint. Every admitted request still gets exactly one
// outcome.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	srv := &http.Server{Addr: addr, Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err // listener failed to start
	case <-ctx.Done():
	}
	graceCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(graceCtx)
	if berr := s.rt.Shutdown(graceCtx); err == nil {
		err = berr
	}
	if err != nil {
		srv.Close() //nolint:errcheck // grace expired; force-close stragglers
	}
	<-errc // ListenAndServe's ErrServerClosed
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"milr/internal/fleet"
	"milr/internal/obs"
	"milr/internal/serve"
	"milr/internal/tensor"
)

// DeadlineHeader is the request header carrying a per-request deadline
// as a Go duration string ("250ms", "2s"). The ?deadline= query
// parameter is the equivalent for clients that cannot set headers; the
// header wins when both are present.
const DeadlineHeader = "X-Milr-Deadline"

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) reported when the client abandoned the request before
// the fleet answered it. Only the access log ever sees it — the client
// is gone — but it keeps abandoned requests distinguishable from
// server-side deadline expiries (504) in metrics and logs.
const StatusClientClosedRequest = 499

// DefaultMaxBody is the request-body size cap applied when
// Config.MaxBody is zero. It comfortably fits the largest zoo model's
// batch payloads while bounding what one request can make the decoder
// buffer.
const DefaultMaxBody = 8 << 20

// Backend is the slice of the fleet the gateway needs: route a sample
// (or a batch) to a named model, snapshot stats for /metrics, and list
// registered models for shape validation and the index route.
// *milr.Fleet satisfies it as-is; tests substitute fakes.
type Backend interface {
	// Predict routes one sample to the named model and blocks until its
	// coalesced batch has been served.
	Predict(ctx context.Context, model string, x *tensor.Tensor) (int, error)
	// PredictBatch enqueues every sample individually on the named
	// model's queue and blocks until all are answered, in input order.
	PredictBatch(ctx context.Context, model string, xs []*tensor.Tensor) ([]int, error)
	// Stats returns a point-in-time snapshot of every model's counters.
	Stats() fleet.Stats
	// Models returns the registered models in registration order.
	Models() []fleet.ModelInfo
}

// Admin is the management slice of the fleet behind the gateway's admin
// routes: remove a model under traffic, or register/replace one from a
// declarative spec. The daemon implements it over *milr.Fleet (it owns
// the model builders a ModelSpec names); tests substitute fakes. The
// routes answer 403 until Config.AllowAdmin is set, so handing a
// Gateway an Admin is not by itself an exposure.
type Admin interface {
	// Unregister removes the named model with the fleet's zero-drop
	// drain semantics; it returns fleet.ErrUnknownModel for names that
	// are not registered.
	Unregister(ctx context.Context, name string) error
	// Apply registers (created=true) or replaces (created=false) the
	// named model from spec. A spec naming an unknown network or
	// otherwise unbuildable model fails with an error wrapping
	// ErrInvalidSpec.
	Apply(ctx context.Context, name string, spec ModelSpec) (created bool, err error)
}

// ModelSpec declares one model on the admin surface: which zoo network
// to build, the weight-init seed, and the fleet registration knobs. It
// is both the PUT /v1/models/{name} request body and one entry of the
// daemon's models config file, so a SIGHUP reload and an admin PUT
// build engines through the same code.
type ModelSpec struct {
	// Network names the model architecture ("tiny", "mnist", ...); the
	// Admin implementation resolves it against its network table.
	Network string `json:"network"`
	// Seed is the deterministic weight-init seed.
	Seed uint64 `json:"seed"`
	// Weight is the fleet fair-share weight; 0 means the default (1).
	Weight float64 `json:"weight,omitempty"`
	// QueueCap overrides the fleet's default admission queue cap for
	// this model: > 0 caps, < 0 forces unbounded, 0 inherits.
	QueueCap int `json:"queue_cap,omitempty"`
}

// ErrInvalidSpec is wrapped by Admin.Apply errors caused by the spec
// itself — an unknown network name, an unbuildable model — as opposed
// to fleet lifecycle errors. The gateway maps it to 400.
var ErrInvalidSpec = errors.New("gateway: invalid model spec")

// Config configures New. The zero value is usable.
type Config struct {
	// MaxBody caps the request body size in bytes; 0 means
	// DefaultMaxBody. Oversized bodies fail decoding with a 400.
	MaxBody int64
	// MaxDeadline, when positive, caps client-requested deadlines:
	// a request asking for more is clamped down to it, so one client
	// cannot park a request (and its queue slot) for an hour.
	MaxDeadline time.Duration
	// Tracer, when non-nil, turns on cross-layer tracing: every predict
	// request gets a gateway.request root span (trace ID from
	// RequestIDHeader, or freshly issued) whose descendants reach down
	// to the per-layer tensor.gemm spans, and GET /v1/trace serves the
	// span ring. Nil keeps the route registered but answering 404 and
	// adds no per-request overhead.
	Tracer *obs.Tracer
	// Admin, when non-nil, backs the admin routes
	// (DELETE/PUT /v1/models/{model}). The routes still answer 403
	// until AllowAdmin is also set.
	Admin Admin
	// AllowAdmin opens the admin routes. Leave it false on any listener
	// exposed to untrusted clients: the routes mutate the fleet.
	AllowAdmin bool
}

// Gateway is the HTTP handler tree over a Backend: predict routes, the
// model index, /metrics and /healthz. Build one with New and mount it
// on any http.Server (it implements http.Handler); SetDraining flips
// /healthz during graceful shutdown. Safe for concurrent use.
type Gateway struct {
	b           Backend
	mux         *http.ServeMux
	maxBody     int64
	maxDeadline time.Duration
	tracer      *obs.Tracer
	admin       Admin
	allowAdmin  bool
	draining    atomic.Bool
}

// New builds a Gateway serving cfg-configured routes over b.
func New(b Backend, cfg Config) *Gateway {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	g := &Gateway{
		b: b, mux: http.NewServeMux(), maxBody: cfg.MaxBody, maxDeadline: cfg.MaxDeadline,
		tracer: cfg.Tracer, admin: cfg.Admin, allowAdmin: cfg.AllowAdmin,
	}
	g.mux.HandleFunc("POST /v1/models/{model}/predict", g.handlePredict)
	g.mux.HandleFunc("GET /v1/models", g.handleModels)
	g.mux.HandleFunc("DELETE /v1/models/{model}", g.handleUnregister)
	g.mux.HandleFunc("PUT /v1/models/{model}", g.handleApply)
	g.mux.HandleFunc("GET /v1/trace", g.handleTrace)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	return g
}

// ServeHTTP dispatches to the gateway's routes.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// SetDraining flips the /healthz answer: while draining the probe
// returns 503 so load balancers stop sending new traffic, while
// already-admitted requests keep being served. The predict routes are
// not cut off here — admission stops when the fleet closes.
func (g *Gateway) SetDraining(on bool) {
	g.draining.Store(on)
}

// predictRequest is the JSON body of the predict route: exactly one of
// Input (a single flattened sample) or Inputs (a batch of them) must
// be present. Each sample is the model's input tensor flattened in
// row-major order.
type predictRequest struct {
	Input  []float64   `json:"input"`
	Inputs [][]float64 `json:"inputs"`
}

// predictResponse is the JSON answer of the predict route: Class for a
// single-sample request, Classes (in input order) for a batch.
type predictResponse struct {
	Model   string `json:"model"`
	Class   *int   `json:"class,omitempty"`
	Classes []int  `json:"classes,omitempty"`
}

// errorResponse is the JSON body of every non-2xx answer. Model and
// Cap are filled on 429s from the typed queue-full rejection, so a
// client sees which model's queue refused it at what cap.
type errorResponse struct {
	Error string `json:"error"`
	Model string `json:"model,omitempty"`
	Cap   int    `json:"cap,omitempty"`
}

func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	info, ok := g.lookup(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown model %q", name), Model: name})
		return
	}
	ctx, cancel, err := g.requestContext(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Model: name})
		return
	}
	if cancel != nil {
		defer cancel()
	}
	ctx, span := g.startTrace(ctx, w, r, name)
	status, resp := g.predict(ctx, w, r, name, info)
	// The root span closes before the response goes out: a sequential
	// client cannot start its next request — and record new spans —
	// until this request's whole tree is in the ring, which is what
	// keeps /v1/trace byte-identical across replays.
	span.SetInt("status", status)
	span.End()
	writeJSON(w, status, resp)
}

// predict decodes the predict-route body and routes it to the backend,
// returning the response status and JSON body instead of writing them,
// so handlePredict can close the request's trace span before the
// response commits. w is used only for MaxBytesReader accounting and
// the Retry-After hint on queue-full rejections.
func (g *Gateway) predict(ctx context.Context, w http.ResponseWriter, r *http.Request, name string, info fleet.ModelInfo) (int, any) {
	var req predictRequest
	if err := DecodeStrict(http.MaxBytesReader(w, r.Body, g.maxBody), &req); err != nil {
		return http.StatusBadRequest, errorResponse{Error: "bad payload: " + err.Error(), Model: name}
	}
	switch {
	case req.Input != nil && req.Inputs != nil:
		return http.StatusBadRequest, errorResponse{Error: `bad payload: set exactly one of "input" and "inputs"`, Model: name}
	case req.Input != nil:
		x, err := buildSample(req.Input, info)
		if err != nil {
			return http.StatusBadRequest, errorResponse{Error: err.Error(), Model: name}
		}
		class, err := g.b.Predict(ctx, name, x)
		if err != nil {
			return g.errorStatus(w, name, err)
		}
		return http.StatusOK, predictResponse{Model: name, Class: &class}
	case req.Inputs != nil:
		if len(req.Inputs) == 0 {
			return http.StatusBadRequest, errorResponse{Error: `bad payload: "inputs" is empty`, Model: name}
		}
		xs := make([]*tensor.Tensor, len(req.Inputs))
		for i, in := range req.Inputs {
			x, err := buildSample(in, info)
			if err != nil {
				return http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("inputs[%d]: %v", i, err), Model: name}
			}
			xs[i] = x
		}
		classes, err := g.b.PredictBatch(ctx, name, xs)
		if err != nil {
			return g.errorStatus(w, name, err)
		}
		return http.StatusOK, predictResponse{Model: name, Classes: classes}
	default:
		return http.StatusBadRequest, errorResponse{Error: `bad payload: missing "input" (or "inputs")`, Model: name}
	}
}

// lookup finds one model's registration info by name.
func (g *Gateway) lookup(name string) (fleet.ModelInfo, bool) {
	for _, mi := range g.b.Models() {
		if mi.Name == name {
			return mi, true
		}
	}
	return fleet.ModelInfo{}, false
}

// requestContext maps the client's requested deadline — DeadlineHeader
// first, ?deadline= as the fallback — onto the request context. With
// neither present the context is returned as-is (cancel is nil) and
// the fleet's own default deadline, if configured, backstops the
// request. Malformed or non-positive durations are rejected so a typo
// cannot silently mean "wait forever".
func (g *Gateway) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	raw := r.Header.Get(DeadlineHeader)
	src := "header " + DeadlineHeader
	if raw == "" {
		raw = r.URL.Query().Get("deadline")
		src = "query deadline"
	}
	if raw == "" {
		return r.Context(), nil, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("bad deadline in %s: %w", src, err)
	}
	if d <= 0 {
		return nil, nil, fmt.Errorf("bad deadline in %s: %v is not positive", src, d)
	}
	if g.maxDeadline > 0 && d > g.maxDeadline {
		d = g.maxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// buildSample validates one flattened sample against the model's input
// shape and builds the tensor the fleet expects. A value beyond
// float32's range is refused: narrowed, it would reach the model as ±Inf.
func buildSample(in []float64, info fleet.ModelInfo) (*tensor.Tensor, error) {
	want := info.InShape.NumElements()
	if len(in) != want {
		return nil, fmt.Errorf("sample has %d values, model %q wants shape %v (%d values)",
			len(in), info.Name, info.InShape, want)
	}
	data := make([]float32, len(in))
	for i, v := range in {
		data[i] = float32(v)
		if math.IsInf(float64(data[i]), 0) {
			return nil, fmt.Errorf("value %d (%g) is outside float32's range", i, v)
		}
	}
	return tensor.FromSlice(data, info.InShape...)
}

// errorStatus maps a fleet error onto a status code and JSON body —
// the error-mapping table in ARCHITECTURE.md. Queue-full rejections
// carry a Retry-After hint plus the refusing model and cap recovered
// from the typed *serve.QueueFullError.
func (g *Gateway) errorStatus(w http.ResponseWriter, model string, err error) (int, any) {
	var qf *serve.QueueFullError
	switch {
	case errors.As(err, &qf):
		w.Header().Set("Retry-After", "1")
		return http.StatusTooManyRequests, errorResponse{Error: err.Error(), Model: qf.Model, Cap: qf.Cap}
	case errors.Is(err, fleet.ErrUnknownModel):
		return http.StatusNotFound, errorResponse{Error: err.Error(), Model: model}
	case errors.Is(err, fleet.ErrClosed):
		return http.StatusServiceUnavailable, errorResponse{Error: err.Error(), Model: model}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, errorResponse{Error: err.Error(), Model: model}
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, errorResponse{Error: err.Error(), Model: model}
	default:
		return http.StatusInternalServerError, errorResponse{Error: err.Error(), Model: model}
	}
}

// modelJSON is one entry of the model-index route.
type modelJSON struct {
	Name       string  `json:"name"`
	InputShape []int   `json:"input_shape"`
	Weight     float64 `json:"weight"`
	QueueCap   int     `json:"queue_cap"`
	Guarded    bool    `json:"guarded"`
}

func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	infos := g.b.Models()
	out := struct {
		Models []modelJSON `json:"models"`
	}{Models: make([]modelJSON, len(infos))}
	for i, mi := range infos {
		out.Models[i] = modelJSON{
			Name:       mi.Name,
			InputShape: mi.InShape,
			Weight:     mi.Weight,
			QueueCap:   mi.QueueCap,
			Guarded:    mi.Guarded,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// adminResponse is the JSON body of a successful admin operation.
type adminResponse struct {
	Model  string `json:"model"`
	Status string `json:"status"`
}

// adminGate answers the admin routes' 403 when the surface is disabled
// (no Admin wired, or AllowAdmin off) and reports whether the handler
// may proceed.
func (g *Gateway) adminGate(w http.ResponseWriter) bool {
	if g.admin == nil || !g.allowAdmin {
		writeJSON(w, http.StatusForbidden, errorResponse{Error: "admin surface disabled"})
		return false
	}
	return true
}

func (g *Gateway) handleUnregister(w http.ResponseWriter, r *http.Request) {
	if !g.adminGate(w) {
		return
	}
	name := r.PathValue("model")
	if err := g.admin.Unregister(r.Context(), name); err != nil {
		status, body := g.errorStatus(w, name, err)
		writeJSON(w, status, body)
		return
	}
	writeJSON(w, http.StatusOK, adminResponse{Model: name, Status: "unregistered"})
}

func (g *Gateway) handleApply(w http.ResponseWriter, r *http.Request) {
	if !g.adminGate(w) {
		return
	}
	name := r.PathValue("model")
	var spec ModelSpec
	if err := DecodeStrict(http.MaxBytesReader(w, r.Body, g.maxBody), &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad payload: " + err.Error(), Model: name})
		return
	}
	created, err := g.admin.Apply(r.Context(), name, spec)
	if err != nil {
		if errors.Is(err, ErrInvalidSpec) {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Model: name})
			return
		}
		status, body := g.errorStatus(w, name, err)
		writeJSON(w, status, body)
		return
	}
	if created {
		writeJSON(w, http.StatusCreated, adminResponse{Model: name, Status: "registered"})
		return
	}
	writeJSON(w, http.StatusOK, adminResponse{Model: name, Status: "replaced"})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", MetricsContentType)
	w.WriteHeader(http.StatusOK)
	// The snapshot is taken after the header: a stats error cannot
	// happen (WriteMetrics only fails when the writer does), so the
	// scrape either succeeds or dies mid-body with the connection.
	_ = WriteMetrics(w, g.b.Stats())
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if g.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// DecodeStrict decodes exactly one JSON value from r into v: unknown
// fields are rejected, and anything but whitespace after the value is
// an error, so a body or file cannot carry a second document past the
// one that was validated. The predict and admin routes and the
// daemon's models-config parser all decode through it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// writeJSON writes one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

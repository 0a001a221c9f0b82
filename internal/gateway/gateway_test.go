package gateway_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"milr/internal/fleet"
	"milr/internal/gateway"
	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// The handler tests run the real Gateway over a real Fleet through
// net/http/httptest — no port is bound, and batch boundaries are made
// deterministic with the same gate-brake trick the fleet's own tests
// use. TinyNet input is 12×12×1 = 144 floats.

// tinyFixture builds a one-model fleet ("tiny") plus inputs and the
// direct predictions the gateway must reproduce.
func tinyFixture(t testing.TB, fcfg fleet.Config, mcfg fleet.ModelConfig, n int) (*fleet.Fleet, [][]float64, []int) {
	t.Helper()
	m, err := nn.NewTinyNet()
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(1)
	f := fleet.New(fcfg)
	if err := f.Register("tiny", m, mcfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	stream := prng.New(7)
	payloads := make([][]float64, n)
	want := make([]int, n)
	for i := range payloads {
		x := stream.Tensor(12, 12, 1)
		data := x.Data()
		payloads[i] = make([]float64, len(data))
		for j, v := range data {
			payloads[i][j] = float64(v)
		}
		if want[i], err = m.Predict(x); err != nil {
			t.Fatal(err)
		}
	}
	return f, payloads, want
}

// brake parks batch executions until released, pinning queue states.
type brake struct {
	entered chan struct{}
	release chan struct{}
}

func newBrake() *brake {
	return &brake{entered: make(chan struct{}, 64), release: make(chan struct{}, 64)}
}

func (b *brake) gate(fn func()) {
	b.entered <- struct{}{}
	<-b.release
	fn()
}

func predictBody(t testing.TB, payload any) string {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func doPredict(g *gateway.Gateway, model, body, deadline string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/models/"+model+"/predict", strings.NewReader(body))
	if deadline != "" {
		req.Header.Set(gateway.DeadlineHeader, deadline)
	}
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	return rec
}

func decodeJSON(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("response %q is not valid JSON: %v", rec.Body.String(), err)
	}
}

// gatewayOverTiny builds a Gateway over a default-configuration tiny
// fleet, so each test reads as one line of setup.
func gatewayOverTiny(t testing.TB) (*gateway.Gateway, [][]float64, []int) {
	t.Helper()
	f, payloads, want := tinyFixture(t, fleet.Config{Workers: 2, BatchSize: 4, MaxDelay: time.Millisecond}, fleet.ModelConfig{}, 4)
	return gateway.New(f, gateway.Config{}), payloads, want
}

// TestPredictSingle pins the happy path: one JSON sample in, the
// bit-identical direct-predict class out.
func TestPredictSingle(t *testing.T) {
	g, payloads, want := gatewayOverTiny(t)
	rec := doPredict(g, "tiny", predictBody(t, map[string]any{"input": payloads[0]}), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Model string `json:"model"`
		Class *int   `json:"class"`
	}
	decodeJSON(t, rec, &resp)
	if resp.Model != "tiny" || resp.Class == nil || *resp.Class != want[0] {
		t.Errorf("response %s, want model=tiny class=%d", rec.Body.String(), want[0])
	}
}

func TestPredictBatchRoute(t *testing.T) {
	g, payloads, want := gatewayOverTiny(t)
	rec := doPredict(g, "tiny", predictBody(t, map[string]any{"inputs": payloads}), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Model   string `json:"model"`
		Classes []int  `json:"classes"`
	}
	decodeJSON(t, rec, &resp)
	if len(resp.Classes) != len(want) {
		t.Fatalf("got %d classes, want %d", len(resp.Classes), len(want))
	}
	for i, c := range resp.Classes {
		if c != want[i] {
			t.Errorf("classes[%d] = %d, direct predict = %d", i, c, want[i])
		}
	}
}

// badPredictRequest is one refused predict request: its route's model,
// body and deadline header, and the status and error text it must get.
type badPredictRequest struct {
	name, model, body, deadline string
	wantStatus                  int
	wantInBody                  string
}

// badPredictRequests lists the refusals TestPredictBadRequests pins
// over the tiny fixture's payloads; FuzzPredictBody seeds from their
// bodies.
func badPredictRequests(t testing.TB, payloads [][]float64) []badPredictRequest {
	short := payloads[0][:10]
	// 1e300 narrows to float32 +Inf; it must be refused, not answered.
	huge := append([]float64(nil), payloads[1]...)
	huge[143] = 1e300
	return []badPredictRequest{
		{"malformed json", "tiny", `{"input": [1,`, "", 400, "bad payload"},
		{"unknown field", "tiny", `{"inptu": [1]}`, "", 400, "bad payload"},
		{"wrong sample length", "tiny", predictBody(t, map[string]any{"input": short}), "", 400, "144 values"},
		{"both input and inputs", "tiny", `{"input": [1], "inputs": [[1]]}`, "", 400, "exactly one"},
		{"empty inputs", "tiny", `{"inputs": []}`, "", 400, "empty"},
		{"missing input", "tiny", `{}`, "", 400, "missing"},
		{"bad deadline", "tiny", predictBody(t, map[string]any{"input": payloads[0]}), "soon", 400, "bad deadline"},
		{"negative deadline", "tiny", predictBody(t, map[string]any{"input": payloads[0]}), "-1s", 400, "not positive"},
		{"unknown model", "nope", predictBody(t, map[string]any{"input": payloads[0]}), "", 404, "unknown model"},
		{"trailing data", "tiny", predictBody(t, map[string]any{"input": payloads[0]}) + ` {"input": [1]}`, "", 400, "trailing data"},
		{"value beyond float32", "tiny", predictBody(t, map[string]any{"input": huge}), "", 400, "value 143 (1e+300) is outside float32's range"},
		{"batch value beyond float32", "tiny", predictBody(t, map[string]any{"inputs": [][]float64{payloads[0], huge}}), "", 400, "inputs[1]: value 143 (1e+300) is outside float32's range"},
	}
}

func TestPredictBadRequests(t *testing.T) {
	g, payloads, _ := gatewayOverTiny(t)
	for _, c := range badPredictRequests(t, payloads) {
		t.Run(c.name, func(t *testing.T) {
			rec := doPredict(g, c.model, c.body, c.deadline)
			if rec.Code != c.wantStatus {
				t.Errorf("status = %d, want %d (body %s)", rec.Code, c.wantStatus, rec.Body.String())
			}
			var er struct {
				Error string `json:"error"`
			}
			decodeJSON(t, rec, &er)
			if !strings.Contains(er.Error, c.wantInBody) {
				t.Errorf("error %q does not mention %q", er.Error, c.wantInBody)
			}
		})
	}
}

// FuzzPredictBody posts arbitrary bodies to the tiny model's predict
// route through the real handler, seeded with TestPredictBadRequests'
// bodies (the float32-overflow rows included) and one good sample and
// batch. No body panics it; every answer but 200 is a 4xx with a JSON
// error body; and a 200 answer's class (or classes) equals a direct
// Model.Predict on the body as the route decodes it: strictly, each
// value narrowed to float32, in the model's input shape.
func FuzzPredictBody(f *testing.F) {
	g, payloads, _ := gatewayOverTiny(f)
	f.Add([]byte(predictBody(f, map[string]any{"input": payloads[0]})))
	f.Add([]byte(predictBody(f, map[string]any{"inputs": payloads[1:3]})))
	for _, c := range badPredictRequests(f, payloads) {
		f.Add([]byte(c.body))
	}
	m, err := nn.NewTinyNet()
	if err != nil {
		f.Fatal(err)
	}
	m.InitWeights(1) // tinyFixture's weights
	predict := func(t *testing.T, in []float64) int {
		x := tensor.New(m.InShape()...)
		for i, v := range in {
			x.Data()[i] = float32(v)
		}
		class, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		return class
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := doPredict(g, "tiny", string(body), "")
		if rec.Code != http.StatusOK {
			var er struct {
				Error string `json:"error"`
			}
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("status %d for %q, want 200 or a 4xx", rec.Code, body)
			}
			decodeJSON(t, rec, &er)
			if er.Error == "" {
				t.Fatalf("status %d for %q with no error in %s", rec.Code, body, rec.Body.String())
			}
			return
		}
		var req struct {
			Input  []float64   `json:"input"`
			Inputs [][]float64 `json:"inputs"`
		}
		if err := gateway.DecodeStrict(bytes.NewReader(body), &req); err != nil {
			t.Fatalf("200 for %q, which does not decode: %v", body, err)
		}
		var resp struct {
			Class   *int  `json:"class"`
			Classes []int `json:"classes"`
		}
		decodeJSON(t, rec, &resp)
		if req.Input != nil {
			if resp.Class == nil || *resp.Class != predict(t, req.Input) {
				t.Fatalf("200 %s for %q, want class %d", rec.Body.String(), body, predict(t, req.Input))
			}
			return
		}
		if len(resp.Classes) != len(req.Inputs) {
			t.Fatalf("200 %s for %q: %d classes for %d inputs", rec.Body.String(), body, len(resp.Classes), len(req.Inputs))
		}
		for i, in := range req.Inputs {
			if want := predict(t, in); resp.Classes[i] != want {
				t.Fatalf("200 %s for %q: inputs[%d] is class %d", rec.Body.String(), body, i, want)
			}
		}
	})
}

// TestPredictQueueFull429 pins the load-shedding contract end to end:
// with the model's single queue slot occupied and a batch parked in
// the gate, the next request is answered 429 with a Retry-After hint
// and the refusing model and cap in the body — the JSON face of the
// typed *serve.QueueFullError.
func TestPredictQueueFull429(t *testing.T) {
	br := newBrake()
	f, payloads, _ := tinyFixture(t,
		fleet.Config{Workers: 1, BatchSize: 1},
		fleet.ModelConfig{QueueCap: 1, Gate: br.gate}, 3)
	// Runs before the fixture's f.Close: a still-parked executor must
	// never deadlock the drain.
	t.Cleanup(func() { close(br.release) })
	g := gateway.New(f, gateway.Config{})
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		rec := doPredict(g, "tiny", predictBody(t, map[string]any{"input": payloads[i]}), "")
		if rec.Code != http.StatusOK {
			t.Errorf("admitted request %d: status %d, body %s", i, rec.Code, rec.Body.String())
		}
	}
	// Request 0 parks inside the gate (entered implies it left the
	// queue), request 1 then holds the only queue slot; request 2 must
	// be shed. Admissions are sequenced so the cap rejection is
	// deterministic.
	wg.Add(1)
	go send(0)
	<-br.entered
	wg.Add(1)
	go send(1)
	waitAdmitted(t, f, 2)
	rec := doPredict(g, "tiny", predictBody(t, map[string]any{"input": payloads[2]}), "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 has no Retry-After header")
	}
	var er struct {
		Error string `json:"error"`
		Model string `json:"model"`
		Cap   int    `json:"cap"`
	}
	decodeJSON(t, rec, &er)
	if er.Model != "tiny" || er.Cap != 1 {
		t.Errorf("429 body %s, want model=tiny cap=1", rec.Body.String())
	}
	br.release <- struct{}{}
	br.release <- struct{}{}
	wg.Wait()
}

func waitAdmitted(t *testing.T, f *fleet.Fleet, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().Admitted < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d admissions (stats %+v)", want, f.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPredictDeadlineExpiry pins the deadline plumbing: a request
// whose X-Milr-Deadline expires while its batch is parked must come
// back as a 504 promptly — a client error, never a hang.
func TestPredictDeadlineExpiry(t *testing.T) {
	br := newBrake()
	f, payloads, _ := tinyFixture(t,
		fleet.Config{Workers: 1, BatchSize: 1},
		fleet.ModelConfig{Gate: br.gate}, 2)
	t.Cleanup(func() { close(br.release) })
	g := gateway.New(f, gateway.Config{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupies the executor so the deadline-bearing request can
		// only wait.
		doPredict(g, "tiny", predictBody(t, map[string]any{"input": payloads[0]}), "")
	}()
	<-br.entered
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- doPredict(g, "tiny", predictBody(t, map[string]any{"input": payloads[1]}), "30ms")
	}()
	select {
	case rec := <-done:
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("status = %d, want 504 (body %s)", rec.Code, rec.Body.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline-bearing request hung instead of failing")
	}
	br.release <- struct{}{}
	br.release <- struct{}{}
	wg.Wait()
}

func TestHealthzDrainFlip(t *testing.T) {
	g, _, _ := gatewayOverTiny(t)
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthy probe: status %d body %q, want 200 ok", rec.Code, rec.Body.String())
	}
	g.SetDraining(true)
	if rec := get("/healthz"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("draining probe: status %d body %q, want 503 draining", rec.Code, rec.Body.String())
	}
	g.SetDraining(false)
	if rec := get("/healthz"); rec.Code != 200 {
		t.Errorf("probe after drain cleared: status %d, want 200", rec.Code)
	}
}

func TestModelsRoute(t *testing.T) {
	g, _, _ := gatewayOverTiny(t)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/models", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp struct {
		Models []struct {
			Name       string `json:"name"`
			InputShape []int  `json:"input_shape"`
			QueueCap   int    `json:"queue_cap"`
			Guarded    bool   `json:"guarded"`
		} `json:"models"`
	}
	decodeJSON(t, rec, &resp)
	if len(resp.Models) != 1 || resp.Models[0].Name != "tiny" {
		t.Fatalf("models = %s, want the one registered model", rec.Body.String())
	}
	wantShape := tensor.Shape{12, 12, 1}
	if !tensor.Shape(resp.Models[0].InputShape).Equal(wantShape) {
		t.Errorf("input_shape = %v, want %v", resp.Models[0].InputShape, wantShape)
	}
}

func TestMetricsRoute(t *testing.T) {
	g, payloads, _ := gatewayOverTiny(t)
	// Serve one request so the latency summary appears.
	if rec := doPredict(g, "tiny", predictBody(t, map[string]any{"input": payloads[0]}), ""); rec.Code != 200 {
		t.Fatalf("warm-up predict: status %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != gateway.MetricsContentType {
		t.Errorf("Content-Type = %q, want %q", ct, gateway.MetricsContentType)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`milr_model_served_total{model="tiny"} 1`,
		`milr_model_latency_seconds{model="tiny",quantile="0.5"}`,
		"milr_fleet_admitted_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestMethodNotAllowed pins the mux patterns: a GET on the predict
// route is refused rather than routed.
func TestMethodNotAllowed(t *testing.T) {
	g, _, _ := gatewayOverTiny(t)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/models/tiny/predict", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d, want %d", rec.Code, http.StatusMethodNotAllowed)
	}
}

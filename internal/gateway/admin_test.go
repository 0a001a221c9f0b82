package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"milr/internal/fleet"
	"milr/internal/gateway"
	"milr/internal/nn"
)

// testAdmin implements gateway.Admin over a real fleet with a one-entry
// builder table — the same shape as the daemon's implementation.
type testAdmin struct {
	f *fleet.Fleet
}

func (a *testAdmin) Unregister(ctx context.Context, name string) error {
	return a.f.Unregister(ctx, name)
}

func (a *testAdmin) Apply(ctx context.Context, name string, spec gateway.ModelSpec) (bool, error) {
	if spec.Network != "tiny" {
		return false, fmt.Errorf("%w: unknown network %q", gateway.ErrInvalidSpec, spec.Network)
	}
	m, err := nn.NewTinyNet()
	if err != nil {
		return false, err
	}
	m.InitWeights(spec.Seed)
	mc := fleet.ModelConfig{Weight: spec.Weight, QueueCap: spec.QueueCap}
	for _, mi := range a.f.Models() {
		if mi.Name == name {
			return false, a.f.Replace(ctx, name, m, mc)
		}
	}
	return true, a.f.Register(name, m, mc)
}

func doAdmin(g *gateway.Gateway, method, model, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, "/v1/models/"+model, strings.NewReader(body))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	return rec
}

// TestAdminDisabled403 pins the admin gate: without AllowAdmin — or
// without an Admin wired at all — the routes exist but refuse, and the
// fleet is not touched.
func TestAdminDisabled403(t *testing.T) {
	f, _, _ := tinyFixture(t, fleet.Config{Workers: 1}, fleet.ModelConfig{}, 1)
	cases := []struct {
		name string
		cfg  gateway.Config
	}{
		{"no flag", gateway.Config{Admin: &testAdmin{f: f}}},
		{"no admin", gateway.Config{AllowAdmin: true}},
		{"neither", gateway.Config{}},
	}
	for _, tc := range cases {
		g := gateway.New(f, tc.cfg)
		for _, method := range []string{"DELETE", "PUT"} {
			if rec := doAdmin(g, method, "tiny", `{"network":"tiny"}`); rec.Code != 403 {
				t.Errorf("%s: %s admin route answered %d, want 403", tc.name, method, rec.Code)
			}
		}
	}
	if n := len(f.Models()); n != 1 {
		t.Fatalf("disabled admin surface mutated the fleet: %d models", n)
	}
}

// TestAdminUnregisterRoute drives DELETE /v1/models/{name} end to end:
// 200 on success, the model vanishes from the predict route (404), the
// index, and the per-model metrics series, while the fleet-wide totals
// keep its history; a second DELETE 404s.
func TestAdminUnregisterRoute(t *testing.T) {
	f, payloads, want := tinyFixture(t, fleet.Config{Workers: 1}, fleet.ModelConfig{}, 1)
	g := gateway.New(f, gateway.Config{Admin: &testAdmin{f: f}, AllowAdmin: true})
	if rec := doPredict(g, "tiny", predictBody(t, map[string]any{"input": payloads[0]}), ""); rec.Code != 200 {
		t.Fatalf("warm-up predict: %d %s", rec.Code, rec.Body)
	}
	rec := doAdmin(g, "DELETE", "tiny", "")
	if rec.Code != 200 {
		t.Fatalf("DELETE: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Model  string `json:"model"`
		Status string `json:"status"`
	}
	decodeJSON(t, rec, &resp)
	if resp.Model != "tiny" || resp.Status != "unregistered" {
		t.Fatalf("DELETE body: %+v", resp)
	}
	if rec := doPredict(g, "tiny", predictBody(t, map[string]any{"input": payloads[0]}), ""); rec.Code != 404 {
		t.Fatalf("predict after unregister: %d, want 404", rec.Code)
	}
	models := httptest.NewRecorder()
	g.ServeHTTP(models, httptest.NewRequest("GET", "/v1/models", nil))
	if strings.Contains(models.Body.String(), `"tiny"`) {
		t.Fatalf("model index still lists the unregistered model: %s", models.Body)
	}
	metrics := httptest.NewRecorder()
	g.ServeHTTP(metrics, httptest.NewRequest("GET", "/metrics", nil))
	out := metrics.Body.String()
	if strings.Contains(out, `model="tiny"`) {
		t.Fatalf("per-model series survived unregistration:\n%s", out)
	}
	for _, series := range []string{"milr_fleet_served_total 1", "milr_fleet_unregistered_total 1", "milr_fleet_models 0"} {
		if !strings.Contains(out, series) {
			t.Fatalf("metrics after unregister missing %q:\n%s", series, out)
		}
	}
	if rec := doAdmin(g, "DELETE", "tiny", ""); rec.Code != 404 {
		t.Fatalf("second DELETE: %d, want 404", rec.Code)
	}
	_ = want
}

// TestAdminApplyRoute drives PUT /v1/models/{name}: 201 registers a new
// model that immediately serves traffic, a second PUT replaces it (200)
// without dropping its stats series, and spec errors map to 400.
func TestAdminApplyRoute(t *testing.T) {
	f, payloads, want := tinyFixture(t, fleet.Config{Workers: 1}, fleet.ModelConfig{}, 2)
	g := gateway.New(f, gateway.Config{Admin: &testAdmin{f: f}, AllowAdmin: true})
	rec := doAdmin(g, "PUT", "fresh", `{"network":"tiny","seed":1,"weight":2}`)
	if rec.Code != 201 {
		t.Fatalf("PUT new model: %d %s, want 201", rec.Code, rec.Body)
	}
	// The spec's seed matches the fixture's, so the fixture's direct
	// predictions are the new model's reference too.
	predict := doPredict(g, "fresh", predictBody(t, map[string]any{"input": payloads[0]}), "")
	if predict.Code != 200 {
		t.Fatalf("predict on PUT model: %d %s", predict.Code, predict.Body)
	}
	var presp struct {
		Class *int `json:"class"`
	}
	decodeJSON(t, predict, &presp)
	if presp.Class == nil || *presp.Class != want[0] {
		t.Fatalf("PUT model answered %v, want %d", presp.Class, want[0])
	}
	rec = doAdmin(g, "PUT", "fresh", `{"network":"tiny","seed":1}`)
	if rec.Code != 200 {
		t.Fatalf("PUT replace: %d %s, want 200", rec.Code, rec.Body)
	}
	var resp struct {
		Status string `json:"status"`
	}
	decodeJSON(t, rec, &resp)
	if resp.Status != "replaced" {
		t.Fatalf("PUT replace status %q", resp.Status)
	}
	metrics := httptest.NewRecorder()
	g.ServeHTTP(metrics, httptest.NewRequest("GET", "/metrics", nil))
	out := metrics.Body.String()
	for _, series := range []string{"milr_fleet_swaps_total 1", `milr_model_served_total{model="fresh"} 1`} {
		if !strings.Contains(out, series) {
			t.Fatalf("metrics after replace missing %q:\n%s", series, out)
		}
	}
	if rec := doAdmin(g, "PUT", "bad", `{"network":"resnet"}`); rec.Code != 400 {
		t.Fatalf("PUT unknown network: %d, want 400", rec.Code)
	}
	if rec := doAdmin(g, "PUT", "bad", `{not json`); rec.Code != 400 {
		t.Fatalf("PUT malformed body: %d, want 400", rec.Code)
	}
	if rec := doAdmin(g, "PUT", "bad", `{"network":"tiny","bogus":1}`); rec.Code != 400 {
		t.Fatalf("PUT unknown field: %d, want 400", rec.Code)
	}
	if rec := doAdmin(g, "PUT", "bad", `{"network":"tiny","seed":1} {"network":"resnet"}`); rec.Code != 400 {
		t.Fatalf("PUT trailing data: %d, want 400", rec.Code)
	}
	if n := len(f.Models()); n != 2 {
		t.Fatalf("rejected PUTs changed the fleet: %d models, want 2", n)
	}
}

// recordingAdmin is an Admin whose Apply always succeeds — created for
// even seeds, replaced for odd ones — and counts its calls, so a fuzzer
// can tell a rejected body from an applied one.
type recordingAdmin struct {
	applied int
}

func (a *recordingAdmin) Unregister(context.Context, string) error { return nil }

func (a *recordingAdmin) Apply(_ context.Context, _ string, spec gateway.ModelSpec) (bool, error) {
	a.applied++
	return spec.Seed%2 == 0, nil
}

// FuzzAdminSpec drives PUT /v1/models/x through the real handler: no
// body panics it, the answer is 200, 201 or 400, Apply runs exactly when
// the answer is 2xx, and a body with anything but whitespace after its
// first JSON value is refused.
func FuzzAdminSpec(f *testing.F) {
	for _, s := range []string{
		`{"network":"tiny","seed":42,"weight":2,"queue_cap":8}`,
		`{"network":"tiny","seed":1} {"network":"tiny"}`,
		`{"network":"tiny"} garbage`,
		`{"network":"tiny","replicas":2}`,
		`{"network":"tiny","seed":18446744073709551616}`,
		`{"network":"tiny","weight":1e400,"queue_cap":-9223372036854775809}`,
		`{"network":"tiny","weight":-1.7976931348623157e308}`,
		"{}\n\t ",
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		admin := &recordingAdmin{}
		g := gateway.New(nil, gateway.Config{Admin: admin, AllowAdmin: true})
		rec := doAdmin(g, "PUT", "x", string(body))
		ok := rec.Code == 200 || rec.Code == 201
		if !ok && rec.Code != 400 {
			t.Fatalf("status %d for %q, want 200, 201 or 400", rec.Code, body)
		}
		if ok != (admin.applied == 1) || admin.applied > 1 {
			t.Fatalf("status %d but Apply ran %d times for %q", rec.Code, admin.applied, body)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		var first json.RawMessage
		if dec.Decode(&first) == nil && len(bytes.Trim(body[dec.InputOffset():], " \t\r\n")) > 0 && rec.Code != 400 {
			t.Fatalf("status %d for %q, which has data after its first value", rec.Code, body)
		}
	})
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"milr/internal/zoo"
)

// TestGracefulShutdownDrains is the daemon-level shutdown contract:
// requests admitted before the signal are answered 200 — never dropped
// — and run returns nil. It drives the real run() on port 0, parks a
// wave of requests in a wide coalescing window, cancels the signal
// context mid-wait, and demands every parked request still succeed.
func TestGracefulShutdownDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-models", "tiny",
			"-batch", "64",
			"-delay", "300ms",
			"-workers", "2",
			"-deadline", "0",
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// TinyNet input is 12×12×1 = 144 floats.
	sample := make([]float64, 144)
	for i := range sample {
		sample[i] = float64(i%7) / 7
	}
	body, err := json.Marshal(map[string]any{"input": sample})
	if err != nil {
		t.Fatal(err)
	}

	const parked = 8
	var wg sync.WaitGroup
	codes := make([]int, parked)
	bodies := make([]string, parked)
	for i := 0; i < parked; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(
				fmt.Sprintf("http://%s/v1/models/tiny/predict", addr),
				"application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Errorf("parked request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			codes[i], bodies[i] = resp.StatusCode, string(raw)
		}()
	}

	// Wait until all requests are admitted (the batch of 64 with a
	// 300ms window parks them), reading the daemon's own /metrics.
	waitForMetric(t, addr, `milr_model_admitted_total{model="tiny"} 8`)

	// SIGTERM equivalent: cancel the signal context mid-window.
	cancel()
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("parked request %d answered %d (%s), want 200 — admitted work was dropped on shutdown",
				i, code, bodies[i])
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after drain")
	}
}

func waitForMetric(t *testing.T, addr, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
		if err == nil {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(raw), want) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for metric %q", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParseFlagsRejectsPositionalArgs pins the flag contract: stray
// arguments are an error, not silently ignored.
func TestParseFlagsRejectsPositionalArgs(t *testing.T) {
	if _, err := parseFlags([]string{"serve"}); err == nil {
		t.Error("positional argument accepted, want error")
	}
	if _, err := parseFlags([]string{"-batch", "4"}); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
}

// TestBuildFleetUnknownModel pins the -models validation path.
func TestBuildFleetUnknownModel(t *testing.T) {
	cfg, err := parseFlags([]string{"-models", "resnet"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildFleet(context.Background(), cfg); !errors.Is(err, zoo.ErrUnknownNetwork) {
		t.Errorf("buildFleet(resnet) err = %v, want zoo.ErrUnknownNetwork", err)
	}
}

// TestSIGHUPReloadSwapsModels is the daemon-level elasticity contract:
// rewrite the models config, send SIGHUP, and the fleet follows — the
// new model answers, the removed one 404s, and no request in the window
// sees a 5xx. It drives the real run() on port 0 with a temp config.
func TestSIGHUPReloadSwapsModels(t *testing.T) {
	// Registering our own SIGHUP handler first keeps the default
	// terminate-on-SIGHUP action disabled even before the daemon's
	// reload loop has installed its own Notify.
	hupGuard := make(chan os.Signal, 1)
	signal.Notify(hupGuard, syscall.SIGHUP)
	defer signal.Stop(hupGuard)

	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "models.json")
	writeConfig := func(body string) {
		t.Helper()
		if err := os.WriteFile(cfgPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeConfig(`{"models":[{"name":"alpha","network":"tiny","seed":1}]}`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-models-config", cfgPath,
			"-allow-admin",
			"-workers", "1",
			"-deadline", "0",
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	var server5xx int
	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode >= 500 {
			server5xx++
		}
		return resp.StatusCode, string(raw)
	}
	sample := make([]float64, 144)
	for i := range sample {
		sample[i] = 0.5
	}
	rawSample, err := json.Marshal(map[string]any{"input": sample})
	if err != nil {
		t.Fatal(err)
	}
	body := string(rawSample)

	if code, out := do("GET", "/v1/models", ""); code != 200 || !strings.Contains(out, `"alpha"`) {
		t.Fatalf("initial model index: %d %s", code, out)
	}
	if code, out := do("POST", "/v1/models/alpha/predict", body); code != 200 {
		t.Fatalf("predict alpha before reload: %d %s", code, out)
	}

	// The rolling upgrade: beta replaces alpha in the config file.
	writeConfig(`{"models":[{"name":"beta","network":"tiny","seed":2,"weight":2}]}`)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, out := do("GET", "/v1/models", "")
		if code == 200 && strings.Contains(out, `"beta"`) && !strings.Contains(out, `"alpha"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reload never applied: %d %s", code, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, out := do("POST", "/v1/models/beta/predict", body); code != 200 {
		t.Fatalf("predict beta after reload: %d %s", code, out)
	}
	if code, _ := do("POST", "/v1/models/alpha/predict", body); code != 404 {
		t.Fatalf("predict alpha after reload: %d, want 404", code)
	}

	// The admin PUT route (open via -allow-admin) registers one more.
	if code, out := do("PUT", "/v1/models/gamma", `{"network":"tiny","seed":3}`); code != 201 {
		t.Fatalf("PUT gamma: %d %s, want 201", code, out)
	}
	if code, out := do("POST", "/v1/models/gamma/predict", body); code != 200 {
		t.Fatalf("predict gamma: %d %s", code, out)
	}
	if code, out := do("GET", "/metrics", ""); code != 200 ||
		!strings.Contains(out, "milr_fleet_unregistered_total 1") ||
		!strings.Contains(out, "milr_fleet_models 2") {
		t.Fatalf("metrics after churn: %d %s", code, out)
	}
	if server5xx != 0 {
		t.Fatalf("%d requests answered 5xx during the reload window", server5xx)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited after cancel")
	}
}

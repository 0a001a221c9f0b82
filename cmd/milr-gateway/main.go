// Command milr-gateway is the network front-end for MILR-protected
// inference: an HTTP/JSON daemon over one milr.Fleet. Each -models
// entry becomes a named model behind per-model coalescing queues and a
// shared batch budget; with -guard every model is MILR-protected and
// round-robin self-healed while serving.
//
// Routes:
//
//	POST   /v1/models/{name}/predict  {"input":[...]} or {"inputs":[[...],...]}
//	GET    /v1/models                 registered models, shapes and caps
//	PUT    /v1/models/{name}          register/replace from a ModelSpec (403 without -allow-admin)
//	DELETE /v1/models/{name}          unregister with a zero-drop drain (403 without -allow-admin)
//	GET    /v1/trace?n=K              last K completed spans (404 without -trace)
//	GET    /metrics                   Prometheus text exposition format
//	GET    /healthz                   200 ok, or 503 while draining
//
// The fleet is elastic: with -allow-admin the PUT/DELETE routes swap
// models under live traffic with zero dropped requests, and with
// -models-config the daemon re-reads its models file on SIGHUP and
// diffs it onto the fleet — registering new entries, live-replacing
// changed ones, draining removed ones — without a restart.
//
// With -trace N every predict request records a span tree — from
// gateway.request down to the per-layer tensor.gemm kernels — into a
// bounded ring served by /v1/trace; the X-Milr-Request-Id header
// carries (or receives) the trace ID. With -debug-addr a second
// listener exposes /debug/pprof/ diagnostics, kept off the traffic
// address on purpose.
//
// Clients bound a request with the X-Milr-Deadline header (or
// ?deadline=), a Go duration mapped onto the request context;
// -deadline backstops requests that send none. Admission rejections
// come back as 429 with a Retry-After hint (shed load, retry later).
//
// Usage:
//
//	milr-gateway                                  # tiny net on 127.0.0.1:8080
//	milr-gateway -models mnist,tiny -cap 128 -workers -1
//	milr-gateway -guard 5ms                       # protected + self-healing fleet
//	milr-gateway -models-config models.json -allow-admin   # elastic fleet, SIGHUP reloads
//
// On SIGINT/SIGTERM the daemon flips /healthz to 503, stops accepting
// connections, finishes every in-flight request (the fleet serves all
// admitted work — drain-on-close), then exits 0.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"milr/internal/gateway"
	"milr/internal/obs"
	"milr/internal/tensor"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "milr-gateway:", err)
		os.Exit(1)
	}
}

// run is the daemon body: build the fleet, serve until ctx is
// cancelled (the signal path), then drain and exit. When ready is
// non-nil the bound listen address is sent on it once the server
// accepts connections — the hook the shutdown test (and anything else
// embedding the daemon) uses with port 0.
func run(ctx context.Context, args []string, ready chan<- string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	fl, admin, err := buildFleet(ctx, cfg)
	if err != nil {
		return err
	}
	// Close is idempotent: this backstops the early-error returns, and
	// the shutdown path's explicit Close runs the one real drain.
	defer fl.Close()

	gwCfg := gateway.Config{MaxDeadline: cfg.maxDeadline, Admin: admin, AllowAdmin: cfg.allowAdmin}
	if cfg.allowAdmin {
		log.Printf("milr-gateway: admin routes open (DELETE/PUT /v1/models/{name})")
	}
	if cfg.trace > 0 {
		// Daemons trace on the wall clock; the fixed virtual clock is
		// for deterministic tests. The seed only feeds generated request
		// IDs, so deriving it from the model seed keeps one knob.
		gwCfg.Tracer = obs.New(obs.Config{Capacity: cfg.trace, Seed: cfg.seed})
		log.Printf("milr-gateway: tracing on, ring capacity %d (GET /v1/trace)", cfg.trace)
	}
	gw := gateway.New(fl, gwCfg)
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.debugAddr != "" {
		// The pprof routes live on their own listener so profiling
		// endpoints are never reachable through the traffic address.
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		dsrv := &http.Server{Handler: gateway.DebugHandler()}
		go func() { _ = dsrv.Serve(dln) }()
		defer dsrv.Close()
		log.Printf("milr-gateway: debug endpoints on http://%s/debug/pprof/", dln.Addr())
	}
	if cfg.modelsConfig != "" {
		// The tdns config-watch idiom: SIGHUP re-reads the models file
		// and diffs it onto the live fleet (register/replace/unregister
		// with zero dropped requests). The loop exits with ctx.
		go reloadLoop(ctx, admin, cfg.modelsConfig)
		log.Printf("milr-gateway: SIGHUP reloads %s", cfg.modelsConfig)
	}
	srv := &http.Server{Handler: gw}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	served := make([]string, 0, 4)
	for _, mi := range fl.Models() {
		served = append(served, mi.Name)
	}
	log.Printf("milr-gateway: serving %s on http://%s (GEMM kernel %s)", strings.Join(served, ","), ln.Addr(), tensor.Kernel())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		// The listener died under us; nothing is admitted anymore, so
		// the deferred Close's drain is immediate.
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Shutdown ordering: advertise draining first (load balancers stop
	// sending), then stop accepting and wait for in-flight handlers —
	// their Predicts ride the fleet's drain — and only then close the
	// fleet and exit.
	log.Printf("milr-gateway: signal received, draining (budget %v)", cfg.drain)
	gw.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Drain budget exceeded: report it, but still drain the fleet's
		// admitted work below so nothing is silently dropped.
		log.Printf("milr-gateway: shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		log.Printf("milr-gateway: serve: %v", err)
	}
	start := time.Now()
	if err := fl.Close(); err != nil {
		return fmt.Errorf("fleet close: %w", err)
	}
	log.Printf("milr-gateway: drained in %v, bye", time.Since(start).Round(time.Millisecond))
	return nil
}

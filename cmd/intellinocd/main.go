// Command intellinocd is the simulation-as-a-service daemon: a
// long-running multi-tenant HTTP server that accepts RunSpec-shaped job
// submissions, schedules them on the experiment harness's priority pool,
// and serves repeated identical specs from a content-digest result store
// instead of re-simulating (internal/service; DESIGN.md §14).
//
//	intellinocd -addr :8080 -store results.jsonl
//	intellinocd -addr 127.0.0.1:0 -workers 8 -rate 10 -quota 64
//	intellinocd -tenants tenants.json -drain-timeout 1m
//	intellinocd -policy-zoo zoo/ -store results.jsonl
//
// API:
//
//	POST /v1/jobs                submit {"jobs":[{"name":...,"spec":RunSpec},...]}
//	GET  /v1/jobs/{id}           non-blocking status
//	GET  /v1/jobs/{id}/stream    JSONL results, chunked; ?from=N resumes
//	GET  /v1/results/{digest}    one stored record
//	GET  /healthz                liveness + drain state
//	GET  /metrics                Prometheus text (also /debug/vars, /debug/pprof)
//
// SIGTERM/SIGINT drain gracefully: admission stops, in-flight and queued
// jobs finish (up to -drain-timeout, then they are canceled via the pool
// context), streams flush, and the HTTP server shuts down cleanly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"intellinoc/internal/service"
)

// options carries the parsed command line.
type options struct {
	addr         string
	store        string
	policyZoo    string
	workers      int
	retries      int
	shards       int
	priority     int
	rate         float64
	burst        float64
	quota        int
	tenantsPath  string
	maxPackets   int
	maxSpecs     int
	drainTimeout time.Duration
}

// parseArgs parses the command line into options on a dedicated FlagSet
// so tests can drive it without global flag state.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("intellinocd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; the bound address is logged)")
	fs.StringVar(&o.store, "store", "intellinocd-results.jsonl", "JSONL digest result store (loaded on start, appended per job; empty = memory-only)")
	fs.StringVar(&o.policyZoo, "policy-zoo", "", "policy zoo directory: persist pre-trained Q-tables across restarts, keyed by policy-spec digest (empty = in-memory only)")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "parallel simulations")
	fs.IntVar(&o.retries, "retries", 0, "per-job retry count (0 = harness default, negative disables)")
	fs.IntVar(&o.shards, "shards", 0, "step each simulated mesh with this many parallel shards (digest-neutral; 0 or 1 = one inline shard)")
	fs.IntVar(&o.priority, "priority", 0, "default per-client job priority")
	fs.Float64Var(&o.rate, "rate", 0, "default per-client token-bucket rate, specs/second (0 = unlimited)")
	fs.Float64Var(&o.burst, "burst", 0, "default per-client token-bucket burst (0 = max(rate, 1))")
	fs.IntVar(&o.quota, "quota", 0, "default per-client in-flight spec quota (0 = unlimited)")
	fs.StringVar(&o.tenantsPath, "tenants", "", `per-client limit overrides, JSON {"client":{"priority":5,"rate_per_sec":10,"burst":20,"max_in_flight":64}}`)
	fs.IntVar(&o.maxPackets, "max-packets", 0, "per-spec packet-budget cap (0 = service default)")
	fs.IntVar(&o.maxSpecs, "max-specs", 0, "per-request spec-count cap (0 = service default)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before canceling them")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	return o, nil
}

// loadTenants reads the per-client overrides file.
func loadTenants(path string) (map[string]service.Limits, error) {
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tenants := make(map[string]service.Limits)
	if err := json.Unmarshal(raw, &tenants); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return tenants, nil
}

// run starts the daemon and blocks until ctx is canceled (the signal
// handler), then drains and shuts down.
func run(ctx context.Context, o options, stderr io.Writer) error {
	tenants, err := loadTenants(o.tenantsPath)
	if err != nil {
		return err
	}
	srv, err := service.New(service.Config{
		StorePath: o.store,
		PolicyZoo: o.policyZoo,
		Workers:   o.workers,
		Retries:   o.retries,
		Shards:    o.shards,
		Defaults: service.Limits{
			Priority:    o.priority,
			RatePerSec:  o.rate,
			Burst:       o.burst,
			MaxInFlight: o.quota,
		},
		Tenants:            tenants,
		MaxPackets:         o.maxPackets,
		MaxSpecsPerRequest: o.maxSpecs,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(stderr, "intellinocd: listening on %s\n", ln.Addr())
	if o.store != "" {
		fmt.Fprintf(stderr, "intellinocd: store %s: %d record(s) loaded, %d corrupt line(s) skipped\n",
			o.store, srv.Store().Len(), srv.Store().Skipped())
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		return fmt.Errorf("intellinocd: serve: %w", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop admission, let queued + in-flight jobs finish
	// (or cancel them at the deadline), flush streams, then stop HTTP.
	fmt.Fprintf(stderr, "intellinocd: draining (timeout %v)\n", o.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(stderr, "intellinocd: drain canceled in-flight jobs: %v\n", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "intellinocd: http shutdown: %v\n", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "intellinocd: serve: %v\n", err)
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("intellinocd: closing store: %w", err)
	}
	fmt.Fprintln(stderr, "intellinocd: shut down cleanly")
	return nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "intellinocd:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, o, os.Stderr)
	stop() // a second signal past this point kills the process
	if err != nil {
		fmt.Fprintln(os.Stderr, "intellinocd:", err)
		os.Exit(1)
	}
}

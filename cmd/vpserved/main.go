// Command vpserved is the simulation-as-a-service daemon: one long-lived
// harness session behind the /v1 HTTP job API (DESIGN.md §6), so kernel
// traces and simulation results are cached across every request the
// process ever answers.
//
// Usage:
//
//	vpserved                                  # listen on 127.0.0.1:8437
//	vpserved -addr 127.0.0.1:0 -addr-file a   # random port, written to a
//	vpserved -workers 8 -max-jobs 128         # sizing
//	vpserved -store-dir /var/cache/vpsim      # results survive restarts
//	vpserved -log-format json                 # structured access/ops logs
//	vpserved -trace-log run.ndjson -pprof     # run tracing + profiling
//
// Try it:
//
//	curl -s localhost:8437/v1/healthz
//	curl -s localhost:8437/metrics                       # Prometheus text
//	curl -s -X POST localhost:8437/v1/simulate \
//	     -d '{"kernel":"art","predictor":"vtage","counters":"fpc"}'
//	curl -s -X POST localhost:8437/v1/experiments/fig4   # -> {"id":"j000001",...}
//	curl -sN localhost:8437/v1/jobs/j000001/stream       # NDJSON results
//
// SIGTERM or SIGINT drains gracefully: admission stops, running jobs
// finish, the listener closes, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro"
)

func main() {
	// Zero means "server default": the service layer's Options.WithDefaults
	// is the single source of default sizing, so tuning it there changes
	// the daemon and embedded servers together.
	addr := flag.String("addr", "127.0.0.1:8437", "listen address (use port 0 for a random port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	workers := flag.Int("workers", 0, "simulation workers shared by all requests (0: GOMAXPROCS)")
	warmup := flag.Uint64("warmup", 0, "warmup µops per simulation (0: server default)")
	measure := flag.Uint64("measure", 0, "measured µops per simulation (0: server default)")
	maxJobs := flag.Int("max-jobs", 0, "max unfinished jobs admitted (0: server default)")
	maxBatch := flag.Int("max-batch", 0, "max specs per batch or experiment (0: server default)")
	reqTimeout := flag.Duration("request-timeout", 0, "budget of each synchronous request, /v1/simulate and /v1/simulate/batch-sync (0: server default)")
	storeDir := flag.String("store-dir", "", "persistent record store directory shared across restarts and processes (empty: memory-only)")
	shardID := flag.String("shard-id", "", "shard identity reported by /v1/healthz and /v1/statsz (empty: the bound host:port)")
	snapshotCap := flag.Int("snapshot-cap", 0, "warm-state snapshot cache entries (0: default cap, negative: disabled)")
	traceLog := flag.String("trace-log", "", "append one NDJSON span per simulation lifecycle stage to this file (empty: off)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (same listener)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute, "graceful shutdown budget")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		slog.Error("vpserved", "err", err)
		os.Exit(2)
	}

	opts := repro.ServerOptions{
		Warmup:         *warmup,
		Measure:        *measure,
		Workers:        *workers,
		MaxJobs:        *maxJobs,
		MaxBatch:       *maxBatch,
		RequestTimeout: *reqTimeout,
		StoreDir:       *storeDir,
		SnapshotCap:    *snapshotCap,
	}.WithDefaults()
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("open trace log", "err", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.TraceWriter = f
		logger.Info("run tracing on", "trace_log", *traceLog)
	}

	// Listen before constructing the server: the default shard identity is
	// the bound host:port, which only exists once the listener is up.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	opts.ShardID = *shardID
	if opts.ShardID == "" {
		opts.ShardID = bound
	}
	svc, err := repro.NewServer(opts)
	if err != nil {
		logger.Error("start", "err", err)
		os.Exit(1)
	}

	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			logger.Error("write addr-file", "path", *addrFile, "err", err)
			os.Exit(1)
		}
	}
	if opts.StoreDir != "" {
		logger.Info("persistent store attached", "dir", opts.StoreDir)
	}
	// opts passed through WithDefaults, so Workers here is the effective
	// pool size even when -workers 0 asked for the default. GOMAXPROCS and
	// NumCPU alongside it say how much of that pool can actually run at
	// once — a 16-worker pool on GOMAXPROCS=1 is concurrency, not parallelism.
	logger.Info("listening",
		"addr", bound,
		"shard_id", opts.ShardID,
		"workers", opts.Workers,
		"gomaxprocs", runtime.GOMAXPROCS(0),
		"num_cpu", runtime.NumCPU(),
		"warmup_uops", opts.Warmup,
		"measure_uops", opts.Measure)

	var handler http.Handler = svc
	if *pprofOn {
		// The service handler keeps everything under /v1 (plus /metrics), so
		// mounting pprof beside it cannot shadow an API route.
		mux := http.NewServeMux()
		mux.Handle("/", svc)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logger.Info("pprof on", "prefix", "/debug/pprof/")
	}

	httpSrv := &http.Server{
		Handler: logRequests(logger, handler),
		// No WriteTimeout: /v1/jobs/{id}/stream stays open for the job's
		// lifetime; per-request budgets are enforced by the service layer.
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		logger.Info("draining", "signal", s.String())
	case err := <-serveErr:
		logger.Error("serve", "err", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	clean := true
	if err := svc.Drain(ctx); err != nil {
		clean = false
		logger.Warn("drain interrupted; cancelling remaining jobs", "err", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		clean = false
		logger.Warn("http shutdown", "err", err)
	}
	// Close cancels whatever Drain left behind; renders and simulations are
	// all context-driven (DESIGN.md §6.2), so this settles within one
	// cancellation checkpoint. The timeout is defense in depth against a
	// future uncancellable path, not an expected exit.
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			clean = false
			logger.Error("close", "err", err)
		}
	case <-time.After(*drainTimeout):
		clean = false
		logger.Error("close timed out with work still in flight", "budget", drainTimeout.String())
	}
	if !clean {
		logger.Error("shutdown finished with errors")
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// newLogger builds the process logger on stderr in the requested format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (have text, json)", format)
	}
}

// logRequests is the structured access log: one line per request with
// method, path, status, response bytes, and duration. Streaming endpoints
// log when the stream ends, with the full body size.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur_ms", time.Since(start).Milliseconds(),
			"remote", r.RemoteAddr)
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush keeps streaming endpoints working through the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

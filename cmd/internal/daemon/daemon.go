// Package daemon is the vpserved daemon: one long-lived harness session
// behind the synchronous /v1 HTTP API (DESIGN.md §6), with its flags,
// structured access log, signal handling and graceful drain. cmd/vpserved
// runs it as a process of its own; vpfleet's serve-shard mode runs it as
// each shard, so a fleet's shards are vpserved daemons by construction.
package daemon

import (
	"context"
	"errors"
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

// Run is the vpserved daemon over args (flags only, without the program
// name): it listens, serves the /v1 API until SIGTERM or SIGINT, then
// drains. It returns the process exit code: 0 after a clean drain, 1 on a
// runtime error or an unclean shutdown, 2 on a usage error.
func Run(args []string) int {
	fs := flag.NewFlagSet("vpserved", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	// Zero means "server default": the service layer's Options.WithDefaults
	// is the single source of default sizing, so tuning it there changes
	// the daemon and embedded servers together.
	addr := fs.String("addr", "127.0.0.1:8437", "listen address (use port 0 for a random port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	workers := fs.Int("workers", 0, "simulation workers shared by all requests (0: GOMAXPROCS)")
	warmup := fs.Uint64("warmup", 0, "warmup µops per simulation (0: server default)")
	measure := fs.Uint64("measure", 0, "measured µops per simulation (0: server default)")
	maxBatch := fs.Int("max-batch", 0, "max specs per batch-sync frame (0: server default)")
	reqTimeout := fs.Duration("request-timeout", 0, "budget of each synchronous request, one /v1/simulate/batch-sync frame (0: server default)")
	storeDir := fs.String("store-dir", "", "persistent record store directory shared across restarts and processes (empty: memory-only)")
	shardID := fs.String("shard-id", "", "shard identity reported by /v1/healthz and /v1/statsz (empty: the bound host:port)")
	traceLog := fs.String("trace-log", "", "append one NDJSON span per simulation lifecycle stage to this file (empty: off)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (same listener)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Minute, "graceful shutdown budget")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	logger, err := newLogger(*logFormat)
	if err != nil {
		slog.Error("vpserved", "err", err)
		return 2
	}

	opts := repro.ServerOptions{
		Warmup:         *warmup,
		Measure:        *measure,
		Workers:        *workers,
		MaxBatch:       *maxBatch,
		RequestTimeout: *reqTimeout,
		StoreDir:       *storeDir,
	}.WithDefaults()
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("open trace log", "err", err)
			return 1
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
		return 1
	}
	bound := ln.Addr().String()
	opts.ShardID = *shardID
	if opts.ShardID == "" {
		opts.ShardID = bound
	}
	// From here on every line, access log included, names its shard, so
	// the interleaved stderr of a vpfleet's shards stays attributable.
	logger = logger.With("shard_id", opts.ShardID)
	svc, err := repro.NewServer(opts)
	if err != nil {
		logger.Error("start", "err", err)
		return 1
	}

	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			logger.Error("write addr-file", "path", *addrFile, "err", err)
			return 1
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
		// No WriteTimeout: the service layer enforces each request's budget
		// (-request-timeout) itself, and answers 504 when it expires.
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
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	clean := true
	if err := svc.Drain(ctx); err != nil {
		clean = false
		logger.Warn("drain interrupted; cancelling remaining requests", "err", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		clean = false
		logger.Warn("http shutdown", "err", err)
	}
	// Close cancels whatever Drain left behind; simulations are
	// context-driven (DESIGN.md §6.2), so this settles within one
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
		return 1
	}
	logger.Info("drained cleanly")
	return 0
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
// method, path, status, response bytes, and duration.
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

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

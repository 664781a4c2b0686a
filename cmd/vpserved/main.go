// Command vpserved is the simulation-as-a-service daemon: one long-lived
// harness session behind the synchronous /v1 HTTP API (DESIGN.md §6), so
// kernel traces and simulation results are cached across every request the
// process ever answers.
//
// Usage:
//
//	vpserved                                  # listen on 127.0.0.1:8437
//	vpserved -addr 127.0.0.1:0 -addr-file a   # random port, written to a
//	vpserved -workers 8 -max-batch 1024       # sizing
//	vpserved -store-dir /var/cache/vpsim      # results survive restarts
//	vpserved -log-format json                 # structured access/ops logs
//	vpserved -trace-log run.ndjson -pprof     # run tracing + profiling
//
// Try it:
//
//	curl -s localhost:8437/v1/healthz
//	curl -s localhost:8437/metrics                       # Prometheus text
//	curl -s -X POST localhost:8437/v1/simulate/batch-sync \
//	     -d '{"specs":[{"kernel":"art","predictor":"vtage","counters":"fpc"}]}'   # one spec: a one-spec frame
//	curl -s -X POST localhost:8437/v1/simulate/batch-sync \
//	     -d '{"specs":[{"kernel":"art","predictor":"none"},{"kernel":"art","predictor":"lvp"}]}'
//	experiments -run fig4 -server http://localhost:8437  # renders on the client
//
// SIGTERM or SIGINT drains gracefully: admission stops, in-flight requests
// finish, the listener closes, and the process exits 0. The daemon itself
// lives in cmd/internal/daemon, which vpfleet's shards run too.
package main

import (
	"os"

	"repro/cmd/internal/daemon"
)

func main() { os.Exit(daemon.Run(os.Args[1:])) }

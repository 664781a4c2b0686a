package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunnerDispatchObservability drives one observed runner per backend
// over a shared registry and asserts the dispatch histogram separates the
// backends by label, the trace writers carry dispatch spans, and the local
// runner's session instruments landed on the same registry.
func TestRunnerDispatchObservability(t *testing.T) {
	reg := NewMetrics()
	var localTrace, remoteTrace bytes.Buffer

	local, err := OpenLocalRunner(RunnerOptions{
		Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 2,
		Metrics: reg, TraceWriter: &localTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	remote := OpenRemoteRunner(ts.URL, RunnerOptions{Metrics: reg, TraceWriter: &remoteTrace})
	t.Cleanup(func() {
		local.Close()
		remote.Close()
		ts.Close()
		srv.Close()
	})

	ctx := context.Background()
	spec := Spec{Kernel: "gzip", Predictor: "lvp"}
	for i := 0; i < 3; i++ {
		if _, err := local.Simulate(ctx, spec); err != nil {
			t.Fatal(err)
		}
		if _, err := remote.Simulate(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}

	dispatch := reg.HistogramVec("repro_dispatch_seconds", "", nil, "backend")
	if got := dispatch.With("local").Count(); got != 3 {
		t.Errorf("local dispatch count = %d, want 3", got)
	}
	if got := dispatch.With("remote").Count(); got != 3 {
		t.Errorf("remote dispatch count = %d, want 3", got)
	}

	// The local runner's session shares the registry: its simulations
	// counter reflects the two cold runs (spec + baseline).
	if got := reg.Counter("repro_simulations_total", "").Value(); got != 2 {
		t.Errorf("repro_simulations_total = %d, want 2 (spec + baseline, memo after)", got)
	}
	// So do its worker-slot families, the ones a daemon's /metrics carries.
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"repro_sched_queue_wait_seconds histogram",
		"repro_sched_busy_workers gauge",
		"repro_sched_coalesced_total counter",
	} {
		if !strings.Contains(page.String(), "# TYPE "+family+"\n") {
			t.Errorf("the local runner's registry does not declare %s", family)
		}
	}
	if got := reg.Histogram("repro_sched_queue_wait_seconds", "", nil).Count(); got != 2 {
		t.Errorf("repro_sched_queue_wait_seconds count = %d, want 2 (one per owner: spec + baseline)", got)
	}

	for name, buf := range map[string]*bytes.Buffer{"local": &localTrace, "remote": &remoteTrace} {
		dispatches := 0
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var s obs.Span
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatalf("%s: corrupt trace line %q: %v", name, line, err)
			}
			if s.Stage == obs.StageDispatch {
				dispatches++
				if s.Tier != name {
					t.Errorf("%s dispatch span has tier %q", name, s.Tier)
				}
			}
		}
		if dispatches != 3 {
			t.Errorf("%s trace has %d dispatch spans, want 3", name, dispatches)
		}
	}
}

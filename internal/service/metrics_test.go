package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
	. "repro/internal/service"
)

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts the value of the first sample line matching prefix.
func metricValue(t *testing.T, page, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			return fields[len(fields)-1]
		}
	}
	t.Fatalf("no sample with prefix %q in scrape", prefix)
	return ""
}

// TestMetricsEndToEnd drives real work through the API and asserts the
// /metrics page reflects it: simulations ran, requests were counted under
// their route labels, the trace writer got spans, and the page is
// well-formed (each family exactly once) — the same gate CI applies to a
// live daemon.
func TestMetricsEndToEnd(t *testing.T) {
	var trace bytes.Buffer
	reg := obs.NewRegistry()
	_, c, ts := newTestServer(t, Options{Workers: 2, Metrics: reg, TraceWriter: &trace})

	spec := harness.Spec{Kernel: "gzip", Predictor: "vtage", Counters: harness.FPC}
	if _, err := simulate(t.Context(), c, spec); err != nil {
		t.Fatal(err)
	}
	// A warm repeat is answered inline: it never takes a worker slot.
	queued := func() string {
		return metricValue(t, scrape(t, ts.URL+"/metrics"), "repro_sched_queue_wait_seconds_count")
	}
	cold := queued()
	if _, err := simulate(t.Context(), c, spec); err != nil {
		t.Fatal(err)
	}
	if warm := queued(); warm != cold {
		t.Errorf("warm simulate waited for a worker slot: queue waits %s -> %s", cold, warm)
	}
	if _, err := c.SimulateBatchSync(t.Context(), []harness.Spec{
		{Kernel: "art", Predictor: "stride", Counters: harness.BaselineCounters},
	}); err != nil {
		t.Fatal(err)
	}

	page := scrape(t, ts.URL+"/metrics")

	if v := metricValue(t, page, "repro_simulations_total"); v == "0" {
		t.Error("repro_simulations_total = 0 after real work")
	}
	for _, prefix := range []string{
		`repro_http_requests_total{endpoint="batch_sync",code="200"}`,
		`repro_cache_lookups_total{tier="memo",result="miss"}`,
		`repro_sched_queue_wait_seconds_count`,
		`repro_simulate_phase_seconds_count{phase="warmup"}`,
	} {
		if v := metricValue(t, page, prefix); v == "0" {
			t.Errorf("%s = 0, want > 0", prefix)
		}
	}
	if v := metricValue(t, page, "repro_sched_busy_workers"); v != "0" {
		t.Errorf("repro_sched_busy_workers = %s after every request answered, want 0", v)
	}

	// Well-formedness: every family header appears exactly once.
	seen := map[string]int{}
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen[strings.Fields(line)[2]]++
		}
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("family %s exposed %d times", name, n)
		}
	}

	// The trace writer saw complete span-sets: at least admit + warmup +
	// measure for the cold specs above.
	stages := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var s obs.Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("corrupt trace line %q: %v", line, err)
		}
		stages[s.Stage]++
	}
	for _, st := range []string{obs.StageAdmit, obs.StageWarmup, obs.StageMeasure, obs.StagePublish} {
		if stages[st] == 0 {
			t.Errorf("trace has no %q spans: %v", st, stages)
		}
	}
}

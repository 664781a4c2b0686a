package repro

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestKernelsAndPredictorsListed(t *testing.T) {
	if got := len(Kernels()); got != 19 {
		t.Errorf("Kernels() = %d entries, want 19", got)
	}
	found := map[string]bool{}
	for _, p := range Predictors() {
		found[p] = true
	}
	for _, want := range []string{"none", "lvp", "stride", "fcm", "vtage", "oracle", "vtage+stride"} {
		if !found[want] {
			t.Errorf("Predictors() missing %q", want)
		}
	}
}

// TestRunExperimentTable1: the text-only Table 1 renders through a Runner
// with every predictor it compares.
func TestRunExperimentTable1(t *testing.T) {
	r := NewLocalRunner(RunnerOptions{})
	defer r.Close()
	var sb strings.Builder
	if err := r.Experiment(context.Background(), "table1", ExperimentOptions{}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"VTAGE", "LVP", "2D-Stride", "o4-FCM"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

// TestRunExperimentOptsJSON: json output of a figure carries one record per
// kernel, and a text-only experiment refuses it.
func TestRunExperimentOptsJSON(t *testing.T) {
	r := NewLocalRunner(RunnerOptions{Warmup: 500, Measure: 2_000, Workers: 4})
	defer r.Close()
	ctx := context.Background()
	opt := ExperimentOptions{Format: "json"}
	var sb strings.Builder
	if err := r.Experiment(ctx, "fig1", opt, &sb); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &recs); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	if len(recs) != len(Kernels()) {
		t.Errorf("got %d records, want %d", len(recs), len(Kernels()))
	}
	if err := r.Experiment(ctx, "table1", opt, &strings.Builder{}); err == nil {
		t.Error("json format accepted for a text-only experiment")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	r := NewLocalRunner(RunnerOptions{})
	defer r.Close()
	if err := r.Experiment(context.Background(), "fig99", ExperimentOptions{}, &strings.Builder{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentsCoverEveryPaperArtifact(t *testing.T) {
	ids := Experiments()
	want := []string{"table1", "table2", "table3", "fig1", "fig3", "fig4",
		"fig5", "fig6", "fig7", "acc", "sec3", "sec4"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing", id)
		}
	}
}

// TestNewServerFacade mounts the service layer through the facade only —
// the path external consumers take — and drives a one-spec and a two-spec
// batch-sync frame through NewClient.
func TestNewServerFacade(t *testing.T) {
	srv, err := NewServer(ServerOptions{Warmup: 1_000, Measure: 4_000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := NewClient(ts.URL)
	ctx := context.Background()
	one, err := c.SimulateBatchSync(ctx, []Spec{{Kernel: "gzip", Predictor: "stride", Counters: FPC}})
	if err != nil {
		t.Fatal(err)
	}
	rec := one[0]
	if rec.Kernel != "gzip" || rec.Predictor != "stride" || rec.IPC <= 0 {
		t.Errorf("bad record over the facade: %+v", rec)
	}

	frame, err := c.SimulateBatchSync(ctx, []Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "stride", Counters: FPC},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 2 || frame[0].Predictor != "none" || frame[1] != rec {
		t.Errorf("batch-sync frame over the facade: %+v, want the baseline then %+v", frame, rec)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemoMisses == 0 {
		t.Error("statsz shows no simulations after a simulate call")
	}
}

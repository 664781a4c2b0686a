package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestListShowsEveryExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	for _, id := range []string{"table1", "fig1", "fig4", "acc", "abl-width"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

// startServer hosts an in-process simulation service for -server tests and
// returns its base URL.
func startServer(t *testing.T, warmup, measure uint64) string {
	t.Helper()
	srv, err := repro.NewServer(repro.ServerOptions{Warmup: warmup, Measure: measure, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// TestServerFlagMatchesInProcess is the retargeting acceptance test: the
// same -run against -server and against the in-process backend must emit
// byte-identical output, for the structured and the text renderer alike.
func TestServerFlagMatchesInProcess(t *testing.T) {
	url := startServer(t, 500, 2_000)
	for _, format := range []string{"csv", "text"} {
		var local, remote, errb bytes.Buffer
		args := []string{"-run", "fig1", "-format", format, "-warmup", "500", "-measure", "2000"}
		if code := run(context.Background(), args, &local, &errb); code != 0 {
			t.Fatalf("local %s exited %d: %s", format, code, errb.String())
		}
		args = []string{"-run", "fig1", "-format", format, "-server", url}
		if code := run(context.Background(), args, &remote, &errb); code != 0 {
			t.Fatalf("remote %s exited %d: %s", format, code, errb.String())
		}
		if local.String() != remote.String() {
			t.Errorf("fig1 %s output differs between backends:\n--- local\n%s--- remote\n%s",
				format, local.String(), remote.String())
		}
	}
}

// TestServerFlagListAndErrors: -list reads the server's index; window flags
// with a remote backend are a usage error, since a daemon's windows are its
// own; a dead server exits 1.
func TestServerFlagListAndErrors(t *testing.T) {
	url := startServer(t, 500, 2_000)
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-list", "-server", url}, &out, &errb); code != 0 {
		t.Fatalf("-list -server exited %d: %s", code, errb.String())
	}
	for _, id := range []string{"fig4", "abl-width", "Table 1"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("remote -list output missing %q:\n%s", id, out.String())
		}
	}

	for _, args := range [][]string{
		{"-run", "fig1", "-server", url, "-warmup", "500"},
		{"-run", "fig1", "-shards", url, "-measure", "2000"},
	} {
		out.Reset()
		errb.Reset()
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Fatalf("%v exited %d, want 2 (stderr: %s)", args, code, errb.String())
		}
		if !strings.Contains(errb.String(), "vpserved -warmup/-measure") {
			t.Errorf("%v: window flag error does not explain itself: %s", args, errb.String())
		}
	}

	errb.Reset()
	if code := run(context.Background(), []string{"-run", "fig1", "-server", "http://127.0.0.1:1"}, &out, &errb); code != 1 {
		t.Errorf("unreachable server exited %d, want 1 (stderr: %s)", code, errb.String())
	}
}

// TestRunJSONRoundTrip drives the real flag path: -run fig1 -format json
// must emit a JSON array that parses back into one record per kernel with
// the stable field names.
func TestRunJSONRoundTrip(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-run", "fig1", "-format", "json",
		"-warmup", "500", "-measure", "2000", "-workers", "4"}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	var recs []map[string]any
	if err := json.Unmarshal(out.Bytes(), &recs); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(recs) != 19 {
		t.Fatalf("got %d records, want 19 (one per kernel)", len(recs))
	}
	for _, r := range recs {
		for _, key := range []string{"kernel", "predictor", "ipc", "speedup", "coverage"} {
			if _, ok := r[key]; !ok {
				t.Fatalf("record missing field %q: %v", key, r)
			}
		}
		if r["predictor"] != "none" || r["speedup"] != 1.0 {
			t.Errorf("fig1 records are baseline runs, got %v", r)
		}
	}
}

func TestRunCSVHasHeaderAndRows(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-run", "fig1", "-format", "csv", "-warmup", "500", "-measure", "2000"}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 20 {
		t.Fatalf("got %d CSV lines, want 20 (header + 19 kernels)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "kernel,predictor,") {
		t.Errorf("unexpected CSV header: %s", lines[0])
	}
}

// TestUnknownIDPrintsIndex: a bad -run id must fail with the full §5.1
// experiment index (id + paper artifact), not a bare error.
func TestUnknownIDPrintsIndex(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-run", "fig99"}, &out, &errb); code != 2 {
		t.Fatalf("unknown id exited %d, want 2", code)
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown id "fig99"`) {
		t.Errorf("missing the offending id: %s", msg)
	}
	for _, want := range []string{"fig4", "abl-width", "Table 1", "selective reissue"} {
		if !strings.Contains(msg, want) {
			t.Errorf("index after unknown id missing %q:\n%s", want, msg)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		{"-run", "fig99"},           // unknown id
		{"-all", "-format", "json"}, // -all is text-only
		{},                          // no action
		{"-bogusflag"},              // parse error
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", args, code)
		}
	}
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-run", "fig1", "-format", "bogus"}, &out, &errb); code != 1 {
		t.Errorf("unknown format exited %d, want 1", code)
	}
}

// TestAblationJSONDeterministicAcrossWorkers pins the PR 4 acceptance
// property: an ablation's structured output is byte-identical whether its
// spec batch runs on one worker or eight — parallel scheduling of the
// extended (custom-config) specs never changes rendered records.
func TestAblationJSONDeterministicAcrossWorkers(t *testing.T) {
	outputs := make([]string, 2)
	for i, workers := range []string{"1", "8"} {
		var out, errb bytes.Buffer
		args := []string{"-run", "abl-fpc", "-format", "json",
			"-warmup", "500", "-measure", "2000", "-workers", workers}
		if code := run(context.Background(), args, &out, &errb); code != 0 {
			t.Fatalf("workers=%s exited %d: %s", workers, code, errb.String())
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Errorf("abl-fpc JSON differs between -workers 1 and -workers 8:\n--- 1 worker\n%s--- 8 workers\n%s",
			outputs[0], outputs[1])
	}
	var recs []map[string]any
	if err := json.Unmarshal([]byte(outputs[0]), &recs); err != nil {
		t.Fatalf("abl-fpc output is not a JSON array: %v", err)
	}
	// 4 kernels x (baseline + 5 sweep points), with the explicit vectors on
	// the custom-counter records.
	if len(recs) != 24 {
		t.Fatalf("abl-fpc emitted %d records, want 24", len(recs))
	}
	custom := 0
	for _, r := range recs {
		if r["counters"] == "custom" {
			custom++
			if r["fpc_vector"] == "" {
				t.Errorf("custom-counter record without fpc_vector: %v", r)
			}
		}
	}
	// Per kernel: 3 sweep points carry explicit vectors (the 3-bit point
	// folds onto baseline counters, the 7-bit point onto the FPC scheme).
	if custom != 12 {
		t.Errorf("%d custom-vector records, want 12", custom)
	}
}

// TestInterruptedRunExitsNonzero: a cancelled context (what SIGINT triggers
// via signal.NotifyContext in main) must abort the run with a context error
// on stderr and the 130 exit status.
func TestInterruptedRunExitsNonzero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	args := []string{"-run", "abl-hist", "-warmup", "500", "-measure", "2000"}
	if code := run(ctx, args, &out, &errb); code != 130 {
		t.Fatalf("interrupted run exited %d, want 130 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "interrupted") || !strings.Contains(errb.String(), "context canceled") {
		t.Errorf("stderr does not report the interruption: %s", errb.String())
	}
	var out2, errb2 bytes.Buffer
	if code := run(ctx, []string{"-all"}, &out2, &errb2); code != 130 {
		t.Errorf("interrupted -all exited %d, want 130 (stderr: %s)", code, errb2.String())
	}
}

// TestCorpusSweepBackends drives -corpus through both backends: the same
// generated corpus must produce byte-identical output locally and against a
// daemon (which receives the programs by automatic upload), in every format.
func TestCorpusSweepBackends(t *testing.T) {
	dir := t.TempDir()
	for _, gen := range []struct {
		family string
		seed   uint64
		name   string
	}{
		{"branchy", 1, "b1.vasm"},
		{"memory", 2, "m2.isa"},
	} {
		p, err := repro.GenerateProgram(gen.family, gen.seed)
		if err != nil {
			t.Fatal(err)
		}
		data := repro.DisassembleProgram(p)
		if strings.HasSuffix(gen.name, ".isa") {
			data = p.Encode()
		}
		if err := os.WriteFile(filepath.Join(dir, gen.name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	url := startServer(t, 500, 2_000)
	for _, format := range []string{"text", "csv"} {
		var local, remote, errb bytes.Buffer
		args := []string{"-corpus", dir, "-pred", "lvp,stride", "-format", format, "-warmup", "500", "-measure", "2000"}
		if code := run(context.Background(), args, &local, &errb); code != 0 {
			t.Fatalf("local corpus %s exited %d: %s", format, code, errb.String())
		}
		args = []string{"-corpus", dir, "-pred", "lvp,stride", "-format", format, "-server", url}
		if code := run(context.Background(), args, &remote, &errb); code != 0 {
			t.Fatalf("remote corpus %s exited %d: %s", format, code, errb.String())
		}
		if local.String() != remote.String() {
			t.Errorf("corpus %s output differs between backends:\n--- local\n%s--- remote\n%s",
				format, local.String(), remote.String())
		}
	}

	// Usage errors: empty corpus directory, conflict with -run.
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-corpus", t.TempDir()}, &out, &errb); code != 1 {
		t.Errorf("empty corpus exited %d, want 1 (stderr %s)", code, errb.String())
	}
	errb.Reset()
	if code := run(context.Background(), []string{"-corpus", dir, "-run", "fig1"}, &out, &errb); code != 2 {
		t.Errorf("-corpus with -run exited %d, want 2", code)
	}

	// A program the emulator cannot run fails the sweep with Validate's
	// message, naming the file, before anything simulates.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "unrunnable.vasm"), []byte("add r1, -, r2\njmp @0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	args := []string{"-corpus", bad, "-pred", "lvp", "-warmup", "500", "-measure", "2000"}
	if code := run(context.Background(), args, &out, &errb); code != 1 ||
		!strings.Contains(errb.String(), "unrunnable.vasm: ") || !strings.Contains(errb.String(), "reads Src1, which names no register") {
		t.Errorf("unrunnable corpus exited %d (stderr %q), want 1 with the file and the validation message", code, errb.String())
	}
}

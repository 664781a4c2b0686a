package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// runnerWindows are small enough for -short while still exercising real
// simulations on both backends.
const (
	runnerWarmup  = 1_000
	runnerMeasure = 4_000
)

// newBackends builds the two Runner implementations over identical window
// sizing: a LocalRunner, and a RemoteRunner against an httptest-hosted
// Server. Differential tests drive both and require identical output.
func newBackends(t testing.TB) (*LocalRunner, *RemoteRunner) {
	t.Helper()
	local := NewLocalRunner(RunnerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 4})
	srv, err := NewServer(ServerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	remote := OpenRemoteRunner(ts.URL, RunnerOptions{})
	t.Cleanup(func() {
		local.Close()
		remote.Close()
		ts.Close()
		srv.Close()
	})
	return local, remote
}

// differentialSpecs is a small batch covering the classic four-field specs,
// a shared-baseline pair, and the extended canonical key (width, history,
// loads-only, explicit vector).
func differentialSpecs() []Spec {
	return []Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "lvp"},
		{Kernel: "gzip", Predictor: "stride", Counters: FPC, Recovery: SelectiveReissue},
		{Kernel: "art", Predictor: "vtage", Counters: FPC, Width: 4, MaxHist: 256},
		{Kernel: "art", Predictor: "lvp", LoadsOnly: true, FPCVec: "0,2,2,2,2,3,3"},
	}
}

// TestRunnerBackendEquivalence is the PR's acceptance test: the same specs
// and the same experiment, driven through LocalRunner and RemoteRunner,
// must yield byte-identical records and rendered artifacts.
func TestRunnerBackendEquivalence(t *testing.T) {
	local, remote := newBackends(t)
	ctx := context.Background()
	specs := differentialSpecs()

	collect := func(r Runner) ([]Record, error) {
		var recs []Record
		err := r.Batch(ctx, specs, func(rec Record) error {
			recs = append(recs, rec)
			return nil
		})
		return recs, err
	}
	localRecs, err := collect(local)
	if err != nil {
		t.Fatalf("local batch: %v", err)
	}
	remoteRecs, err := collect(remote)
	if err != nil {
		t.Fatalf("remote batch: %v", err)
	}
	if len(localRecs) != len(specs) || len(remoteRecs) != len(specs) {
		t.Fatalf("got %d local / %d remote records, want %d each", len(localRecs), len(remoteRecs), len(specs))
	}
	for i := range specs {
		if localRecs[i].Kernel != specs[i].Kernel || localRecs[i].Predictor != specs[i].Predictor {
			t.Errorf("batch delivery out of spec order at %d: %+v", i, localRecs[i])
		}
	}
	localJSON, _ := json.Marshal(localRecs)
	remoteJSON, _ := json.Marshal(remoteRecs)
	if !bytes.Equal(localJSON, remoteJSON) {
		t.Errorf("backends disagree on batch records:\nlocal:  %s\nremote: %s", localJSON, remoteJSON)
	}

	// Single-spec dispatch must agree with itself across backends too.
	lr, err := local.Simulate(ctx, specs[3])
	if err != nil {
		t.Fatal(err)
	}
	rr, err := remote.Simulate(ctx, specs[3])
	if err != nil {
		t.Fatal(err)
	}
	if lr != rr {
		t.Errorf("Simulate disagrees across backends:\nlocal:  %+v\nremote: %+v", lr, rr)
	}

	// Experiment rendering: text and csv are byte-identical.
	for _, format := range []string{"text", "csv"} {
		var lb, rb bytes.Buffer
		if err := local.Experiment(ctx, "fig1", ExperimentOptions{Format: format}, &lb); err != nil {
			t.Fatalf("local fig1 %s: %v", format, err)
		}
		if err := remote.Experiment(ctx, "fig1", ExperimentOptions{Format: format}, &rb); err != nil {
			t.Fatalf("remote fig1 %s: %v", format, err)
		}
		if lb.String() != rb.String() {
			t.Errorf("fig1 %s output differs across backends:\n--- local\n%s--- remote\n%s",
				format, lb.String(), rb.String())
		}
	}
}

// TestRunnerExperimentsIndex: both backends serve the same experiment
// index, and text-only experiments refuse structured formats identically.
func TestRunnerExperimentsIndex(t *testing.T) {
	local, remote := newBackends(t)
	ctx := context.Background()
	li, err := local.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := remote.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(li) != fmt.Sprint(ri) {
		t.Errorf("experiment indexes differ:\nlocal:  %v\nremote: %v", li, ri)
	}
	if len(li) == 0 || li[0].ID != "table1" {
		t.Errorf("unexpected index head: %v", li)
	}

	for _, r := range []Runner{local, remote} {
		err := r.Experiment(ctx, "table1", ExperimentOptions{Format: "json"}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "no structured results") {
			t.Errorf("%T: json for text-only experiment: %v", r, err)
		}
	}
}

// TestRunnerBatchCallbackAbort: a non-nil fn error stops the batch on both
// backends without delivering further records.
func TestRunnerBatchCallbackAbort(t *testing.T) {
	local, remote := newBackends(t)
	ctx := context.Background()
	sentinel := errors.New("stop after two")
	for _, tc := range []struct {
		name string
		r    Runner
	}{{"local", local}, {"remote", remote}} {
		calls := 0
		err := tc.r.Batch(ctx, differentialSpecs(), func(Record) error {
			calls++
			if calls == 2 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: Batch returned %v, want the callback error", tc.name, err)
		}
		if calls != 2 {
			t.Errorf("%s: callback ran %d times after aborting at 2", tc.name, calls)
		}
	}
}

// TestRunnerValidatesSpecs: both backends reject invalid specs before (or
// at) the wire, with the shared harness validation error.
func TestRunnerValidatesSpecs(t *testing.T) {
	local, remote := newBackends(t)
	ctx := context.Background()
	bad := Spec{Kernel: "art", Predictor: "lvp", MaxHist: 256} // max_hist is vtage-only
	for _, tc := range []struct {
		name string
		r    Runner
	}{{"local", local}, {"remote", remote}} {
		if _, err := tc.r.Simulate(ctx, bad); err == nil || !strings.Contains(err.Error(), "max_hist") {
			t.Errorf("%s: bad spec error %v", tc.name, err)
		}
		err := tc.r.Batch(ctx, []Spec{bad}, func(Record) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "spec 0") {
			t.Errorf("%s: bad batch error %v", tc.name, err)
		}
	}
}

// TestRemoteRunnerTypedErrors: server-side failures surface as unwrapped
// *APIError values — errors.As works directly on what the runner returns.
// An unknown experiment never reaches the server: it fails on the client
// with the LocalRunner's error, index included.
func TestRemoteRunnerTypedErrors(t *testing.T) {
	local, remote := newBackends(t)
	ctx := context.Background()
	ghost := Spec{Program: "prog:" + strings.Repeat("ab", 32), Predictor: "lvp"}
	_, err := remote.Simulate(ctx, ghost)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("unknown program error %v is not an *APIError", err)
	}
	if apiErr.Status != 404 || apiErr.Code != APICodeUnknownProgram {
		t.Errorf("got status %d code %q, want 404 %s", apiErr.Status, apiErr.Code, APICodeUnknownProgram)
	}

	remoteErr := remote.Experiment(ctx, "fig99", ExperimentOptions{}, &bytes.Buffer{})
	localErr := local.Experiment(ctx, "fig99", ExperimentOptions{}, &bytes.Buffer{})
	if remoteErr == nil || localErr == nil || remoteErr.Error() != localErr.Error() {
		t.Errorf("unknown experiment: remote %v, local %v; want the same error", remoteErr, localErr)
	} else if !strings.Contains(remoteErr.Error(), "fig4") {
		t.Errorf("unknown-experiment error does not carry the index: %v", remoteErr)
	}
}

// TestStaticExperimentsNeedNoDaemon: an experiment that declares no specs
// and traces no kernel reads nothing from its backend, so a remote runner
// whose daemon is gone renders it byte-identically to a LocalRunner. Only
// profile, which traces kernels on the backend's session, asks the daemon,
// and it returns the transport error.
func TestStaticExperimentsNeedNoDaemon(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	remote := OpenRemoteRunner(closed, RunnerOptions{})
	defer remote.Close()
	local := NewLocalRunner(RunnerOptions{Warmup: runnerWarmup, Measure: runnerMeasure})
	defer local.Close()
	ctx := context.Background()
	for _, id := range []string{"table1", "table2", "table3", "sec3", "sec4"} {
		var got, want bytes.Buffer
		if err := local.Experiment(ctx, id, ExperimentOptions{}, &want); err != nil {
			t.Fatal(err)
		}
		if err := remote.Experiment(ctx, id, ExperimentOptions{}, &got); err != nil {
			t.Errorf("%s with no daemon: %v", id, err)
		} else if got.String() != want.String() {
			t.Errorf("%s with no daemon differs from the local render:\n--- got\n%s--- want\n%s", id, &got, &want)
		}
	}
	err = remote.Experiment(ctx, "profile", ExperimentOptions{}, io.Discard)
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Errorf("profile with no daemon: got %v, want the transport error", err)
	}
}

// TestLocalRunnerWorkersBoundEveryCall: RunnerOptions.Workers bounds the
// runner, not each call. Concurrent Batch, Simulate and Experiment calls on
// a one-worker runner share its one slot: a sampler never sees two held.
func TestLocalRunnerWorkersBoundEveryCall(t *testing.T) {
	r := NewLocalRunner(RunnerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 1})
	ctx := context.Background()
	var batch []Spec
	for _, k := range []string{"gzip", "art", "mcf", "milc"} {
		batch = append(batch, Spec{Kernel: k, Predictor: "lvp"}, Spec{Kernel: k, Predictor: "stride", Counters: FPC})
	}
	calls := []func() error{
		func() error { return r.Batch(ctx, batch, func(Record) error { return nil }) },
		func() error {
			_, err := r.Simulate(ctx, Spec{Kernel: "parser", Predictor: "vtage", Counters: FPC})
			return err
		},
		func() error { return r.Experiment(ctx, "fig1", ExperimentOptions{}, io.Discard) },
	}
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for i, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call()
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	maxBusy := 0
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
			time.Sleep(100 * time.Microsecond)
		}
		maxBusy = max(maxBusy, r.Session().SlotStats().Busy)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if maxBusy != 1 {
		t.Errorf("concurrent calls on a Workers: 1 runner held up to %d slots at once, want 1", maxBusy)
	}
}

// TestRemoteRunnerBisectsOversizedFrames: against a daemon admitting at most
// two specs per batch, the five-spec frame is refused with 413 and the
// runner bisects it until every piece fits — records still byte-identical
// to a LocalRunner, in spec order.
func TestRemoteRunnerBisectsOversizedFrames(t *testing.T) {
	local, _ := newBackends(t)
	srv, err := NewServer(ServerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 2, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	remote := OpenRemoteRunner(ts.URL, RunnerOptions{})
	t.Cleanup(func() {
		remote.Close()
		ts.Close()
		srv.Close()
	})
	specs := differentialSpecs()
	if len(specs) <= 2 {
		t.Fatalf("%d specs fit one admitted frame; the test needs more", len(specs))
	}
	collect := func(r Runner) []byte {
		var recs []Record
		if err := r.Batch(context.Background(), specs, func(rec Record) error {
			recs = append(recs, rec)
			return nil
		}); err != nil {
			t.Fatalf("%T batch: %v", r, err)
		}
		b, _ := json.Marshal(recs)
		return b
	}
	if want, got := collect(local), collect(remote); !bytes.Equal(want, got) {
		t.Errorf("bisected batch differs from LocalRunner:\n got %s\nwant %s", got, want)
	}
}

// TestZeroOptionsShareDefaultWindows pins the window defaults: a
// LocalRunner from zero RunnerOptions and a daemon from zero ServerOptions
// both run harness.DefaultWarmup+DefaultMeasure, so one spec's records are
// byte-identical and cover the default measurement window.
func TestZeroOptionsShareDefaultWindows(t *testing.T) {
	local := NewLocalRunner(RunnerOptions{})
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	remote := OpenRemoteRunner(ts.URL, RunnerOptions{})
	t.Cleanup(func() {
		local.Close()
		remote.Close()
		ts.Close()
		srv.Close()
	})
	spec := Spec{Kernel: "gzip", Predictor: "lvp"}
	var got [2][]byte
	for i, r := range []Runner{local, remote} {
		rec, err := r.Simulate(context.Background(), spec)
		if err != nil {
			t.Fatalf("%T: %v", r, err)
		}
		if rec.Committed != harness.DefaultMeasure {
			t.Errorf("%T measured %d µops, want harness.DefaultMeasure (%d)", r, rec.Committed, harness.DefaultMeasure)
		}
		got[i], _ = json.Marshal(rec)
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Errorf("zero-option records differ:\nlocal  %s\nremote %s", got[0], got[1])
	}
}

// renderAll renders every experiment in every format through r, keyed
// "id/format": the rendered bytes, or the error text where the format does
// not apply (json and csv of a text-only experiment).
func renderAll(t testing.TB, r Runner) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, id := range Experiments() {
		for _, format := range []string{"text", "json", "csv"} {
			var b bytes.Buffer
			if err := r.Experiment(context.Background(), id, ExperimentOptions{Format: format}, &b); err != nil {
				out[id+"/"+format] = "error: " + err.Error()
				continue
			}
			out[id+"/"+format] = b.String()
		}
	}
	return out
}

// referenceRenders is renderAll over the reference runner, which must fail
// only where a format does not apply.
func referenceRenders(t testing.TB, r Runner) map[string]string {
	t.Helper()
	want := renderAll(t, r)
	for k, v := range want {
		if strings.HasPrefix(v, "error: ") && !strings.Contains(v, "no structured results") {
			t.Fatalf("reference %s: %s", k, v)
		}
	}
	return want
}

// sameRenders reports every experiment/format whose output differs.
func sameRenders(t testing.TB, got, want map[string]string) {
	t.Helper()
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s differs:\n--- got\n%s--- want\n%s", k, got[k], w)
		}
	}
}

// TestEveryExperimentRendersAlike: every experiment renders byte-identically
// in text, json and csv on a LocalRunner, a RemoteRunner, and 1-, 2- and
// 3-shard fleets (under -short, the 3-shard fleet only). The LocalRunner
// fills one record store that every shard reads, so the remote backends
// serve its records instead of simulating them again: what this pins is
// dispatch and client-side rendering. Freshly simulated records are held
// equal across backends by the batch checks of TestRunnerBackendEquivalence
// and TestShardedRunnerEquivalence. The reference simulates on one worker,
// so the test keeps to one CPU.
func TestEveryExperimentRendersAlike(t *testing.T) {
	dir := t.TempDir()
	local := NewLocalRunner(RunnerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 1, StoreDir: dir})
	t.Cleanup(func() { local.Close() })
	want := referenceRenders(t, local)

	for _, shards := range []int{1, 2, 3} {
		if testing.Short() && shards != 3 {
			continue
		}
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fx := newStoredFixture(t, shards, dir)
			sameRenders(t, renderAll(t, fx.runner), want)
			if shards == 1 {
				remote := OpenRemoteRunner(fx.urls[0], RunnerOptions{})
				defer remote.Close()
				sameRenders(t, renderAll(t, remote), want)
			}
		})
	}
}

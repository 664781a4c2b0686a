// The end-to-end tests live outside the package so they can use the typed
// client (which imports service); the dot-import keeps the wire types
// readable.
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/isa"
	. "repro/internal/service"
	"repro/internal/service/client"
)

// testWindows are small enough that the full fig4 batch stays fast under
// -race while still exercising real simulations.
const (
	testWarmup  = 1_000
	testMeasure = 4_000
)

func newTestServer(t testing.TB, o Options) (*Server, *client.Client, *httptest.Server) {
	t.Helper()
	if o.Warmup == 0 {
		o.Warmup = testWarmup
	}
	if o.Measure == 0 {
		o.Measure = testMeasure
	}
	srv, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(ts.URL), ts
}

// specRequests converts harness specs to their wire form.
func specRequests(specs []harness.Spec) []SpecRequest {
	out := make([]SpecRequest, len(specs))
	for i, s := range specs {
		out[i] = RequestFor(s)
	}
	return out
}

// TestServerEndToEndConcurrentClients is the subsystem's acceptance test
// (run it with -race): several clients concurrently submit overlapping fig4
// spec batches; every job's records must be byte-identical to a sequential
// Session.Records over the same specs on a fresh session, and the shared
// memo must show cross-request hits afterwards.
func TestServerEndToEndConcurrentClients(t *testing.T) {
	_, c, _ := newTestServer(t, Options{Workers: 4})
	specs := harness.Fig4Specs()
	reqs := specRequests(specs)

	// The sequential reference on an independent session.
	ref := harness.NewSession(testWarmup, testMeasure)
	want, err := ref.Records(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 4
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	got := make([][]harness.Record, clients)
	streamed := make([]int, clients)
	errs := make([]error, clients)
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			st, err := c.SubmitBatch(ctx, reqs)
			if err != nil {
				errs[n] = err
				return
			}
			if _, err := c.Stream(ctx, st.ID, func(ev Event) error {
				if ev.Type == "record" {
					streamed[n]++
				}
				return nil
			}); err != nil {
				errs[n] = err
				return
			}
			final, err := c.Job(ctx, st.ID)
			if err != nil {
				errs[n] = err
				return
			}
			if final.State != StateDone {
				errs[n] = fmt.Errorf("job %s finished %s: %s", final.ID, final.State, final.Error)
				return
			}
			got[n] = final.Records
		}(n)
	}
	wg.Wait()
	for n, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", n, err)
		}
	}
	for n := 0; n < clients; n++ {
		gotJSON, err := json.Marshal(got[n])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("client %d: served records differ from sequential RunAll records", n)
		}
		if streamed[n] != len(specs) {
			t.Errorf("client %d: streamed %d record events, want %d", n, streamed[n], len(specs))
		}
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemoHits == 0 {
		t.Error("no cross-request memo hits after overlapping batches")
	}
	if stats.BusyWorkers != 0 {
		t.Errorf("%d workers still busy after all jobs finished", stats.BusyWorkers)
	}
	if stats.Jobs[StateDone] != clients {
		t.Errorf("statsz job census %v, want %d done", stats.Jobs, clients)
	}
}

// TestServerCancelFreesWorkers: cancelling a job must release its workers,
// observable through /v1/statsz, and leave the job canceled — while the
// memo stays healthy for later runs of the same specs.
func TestServerCancelFreesWorkers(t *testing.T) {
	// Long measurement windows so the batch is mid-flight when cancelled.
	_, c, _ := newTestServer(t, Options{Workers: 2, Warmup: 10_000, Measure: 1_500_000})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var reqs []SpecRequest
	for _, k := range []string{"gzip", "art"} {
		for _, p := range []string{"none", "lvp", "stride"} {
			reqs = append(reqs, SpecRequest{Kernel: k, Predictor: p})
		}
	}
	st, err := c.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}

	waitFor := func(what string, cond func(ServerStats) bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			stats, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if cond(stats) {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitFor("workers busy", func(s ServerStats) bool { return s.BusyWorkers > 0 })

	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	waitFor("workers freed", func(s ServerStats) bool {
		return s.BusyWorkers == 0 && s.QueuedTasks == 0
	})

	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("cancelled job is %q, want %q", final.State, StateCanceled)
	}
	// The abandoned runs must not have been memoized as failures: a small
	// follow-up simulate of one of the same specs succeeds.
	rec, err := c.Simulate(ctx, SpecRequest{Kernel: "gzip", Predictor: "none"})
	if err != nil {
		t.Fatalf("simulate after cancel: %v", err)
	}
	if rec.IPC <= 0 {
		t.Errorf("post-cancel simulate returned empty record: %+v", rec)
	}
}

// TestSimulateSync covers the synchronous endpoint: a valid spec returns a
// record with a real speedup, the same record a one-spec batch-sync frame
// answers; a warm repeat counts the memo hits a scheduled lookup counts —
// spec and baseline once to answer, once more each for the record's
// speedup — and no miss; and bad specs, unknown programs and a draining
// server fail with the same status and code on both endpoints.
func TestSimulateSync(t *testing.T) {
	srv, c, _ := newTestServer(t, Options{})
	ctx := context.Background()
	req := SpecRequest{Kernel: "art", Predictor: "vtage", Counters: "fpc"}
	rec, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kernel != "art" || rec.Predictor != "vtage" || rec.Speedup <= 0 {
		t.Errorf("bad record: %+v", rec)
	}
	frame, err := c.SimulateBatchSync(ctx, []SpecRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != rec {
		t.Errorf("endpoints disagree:\nsimulate   %+v\nbatch-sync %+v", rec, frame[0])
	}
	before := srv.Stats()
	if _, err := c.Simulate(ctx, req); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if hits, misses := after.MemoHits-before.MemoHits, after.MemoMisses-before.MemoMisses; hits != 4 || misses != 0 {
		t.Errorf("warm simulate counted %d memo hits and %d misses, want 4 and 0", hits, misses)
	}

	bothFail := func(req SpecRequest, status int, code string) {
		t.Helper()
		_, simErr := c.Simulate(ctx, req)
		_, frameErr := c.SimulateBatchSync(ctx, []SpecRequest{req})
		for _, err := range []error{simErr, frameErr} {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != status || apiErr.Code != code {
				t.Errorf("spec %+v: got %v, want HTTP %d %s", req, err, status, code)
			}
		}
	}
	for _, bad := range []SpecRequest{
		{Kernel: "nope", Predictor: "lvp"},
		{Kernel: "art", Predictor: "nope"},
		{Kernel: "art", Predictor: "lvp", Counters: "nope"},
		{Kernel: "art", Predictor: "lvp", Recovery: "nope"},
	} {
		bothFail(bad, http.StatusBadRequest, CodeBadRequest)
	}
	bothFail(SpecRequest{Program: "prog:" + strings.Repeat("ab", 32), Predictor: "lvp"},
		http.StatusNotFound, CodeUnknownProgram)
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	bothFail(req, http.StatusServiceUnavailable, CodeDraining)
}

// TestRequestBodiesAreOneValue: every JSON POST endpoint takes exactly one
// JSON value. Whitespace after it is fine; a concatenated second request
// or trailing garbage is a 400 bad_request, never a silently dropped tail.
func TestRequestBodiesAreOneValue(t *testing.T) {
	_, _, ts := newTestServer(t, Options{Workers: 1})
	prog, err := isa.Generate("branchy", 3)
	if err != nil {
		t.Fatal(err)
	}
	upload, err := json.Marshal(ProgramRequest{Assembly: string(isa.Disassemble(prog))})
	if err != nil {
		t.Fatal(err)
	}
	spec := `{"kernel":"gzip","predictor":"none"}`
	frame := `{"specs":[` + spec + `]}`
	for _, ep := range []struct {
		path, body string
		ok         int
	}{
		{"/v1/simulate", spec, http.StatusOK},
		{"/v1/simulate/batch-sync", frame, http.StatusOK},
		{"/v1/batch", frame, http.StatusAccepted},
		{"/v1/programs", string(upload), http.StatusOK},
	} {
		for _, tc := range []struct {
			tail string
			want int
		}{
			{"", ep.ok},
			{" \r\n\t", ep.ok},
			{ep.body, http.StatusBadRequest},
			{" trailing-garbage", http.StatusBadRequest},
		} {
			resp, err := http.Post(ts.URL+ep.path, "application/json", strings.NewReader(ep.body+tc.tail))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("%s with tail %q: HTTP %d, want %d: %s", ep.path, tc.tail, resp.StatusCode, tc.want, body)
				continue
			}
			var apiErr APIError
			if tc.want == http.StatusBadRequest && (json.Unmarshal(body, &apiErr) != nil || apiErr.Code != CodeBadRequest) {
				t.Errorf("%s with tail %q: error body %s, want code %s", ep.path, tc.tail, body, CodeBadRequest)
			}
		}
	}
}

// TestExperimentJob runs one experiment end to end and pins the artifact
// against the harness's direct text rendering.
func TestExperimentJob(t *testing.T) {
	_, c, _ := newTestServer(t, Options{Workers: 4})
	ctx := context.Background()
	st, err := c.SubmitExperiment(ctx, "fig1")
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("fig1 job finished %s: %s", final.State, final.Error)
	}
	if len(final.Records) != 19 {
		t.Errorf("fig1 job returned %d records, want 19", len(final.Records))
	}

	e, _ := harness.ExperimentByID("fig1")
	var want bytes.Buffer
	if err := harness.Render(context.Background(), harness.NewSession(testWarmup, testMeasure), e, "text", 1, &want); err != nil {
		t.Fatal(err)
	}
	if final.Artifact != want.String() {
		t.Errorf("experiment artifact differs from direct render:\n--- service\n%s--- direct\n%s",
			final.Artifact, want.String())
	}

	// Text-only experiments (no declared specs) also work as jobs.
	st, err = c.SubmitExperiment(ctx, "table3")
	if err != nil {
		t.Fatal(err)
	}
	if final, err = c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || !strings.Contains(final.Artifact, "Kernel") {
		t.Errorf("table3 job: state=%s artifact=%q", final.State, final.Artifact)
	}
}

// TestUnknownExperimentListsIndex: a bad experiment id must fail with the
// available index, not a bare error.
func TestUnknownExperimentListsIndex(t *testing.T) {
	_, c, _ := newTestServer(t, Options{})
	_, err := c.SubmitExperiment(context.Background(), "fig99")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != CodeNotFound {
		t.Fatalf("got %v, want HTTP 404 %s", err, CodeNotFound)
	}
	for _, id := range []string{"fig4", "table1", "abl-width"} {
		if !strings.Contains(apiErr.Msg, id) {
			t.Errorf("404 message does not list %q: %s", id, apiErr.Msg)
		}
	}
}

// TestAdmissionLimits: job-count and batch-size limits reject with 429/413,
// and a draining server answers 503.
func TestAdmissionLimits(t *testing.T) {
	srv, c, _ := newTestServer(t, Options{Workers: 1, MaxJobs: 1, MaxBatch: 4, Warmup: 10_000, Measure: 1_000_000})
	ctx := context.Background()

	big := specRequests([]harness.Spec{
		{Kernel: "gzip", Predictor: "none"}, {Kernel: "gzip", Predictor: "lvp"},
		{Kernel: "art", Predictor: "none"}, {Kernel: "art", Predictor: "lvp"},
		{Kernel: "parser", Predictor: "none"},
	})
	var apiErr *client.APIError
	if _, err := c.SubmitBatch(ctx, big); err == nil {
		t.Error("oversized batch accepted")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 413 || apiErr.Code != CodeTooLarge {
		t.Errorf("oversized batch: got %v, want HTTP 413 %s", err, CodeTooLarge)
	}

	st, err := c.SubmitBatch(ctx, big[:2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBatch(ctx, big[2:4]); err == nil {
		t.Error("second job accepted beyond MaxJobs=1")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != CodeQueueFull {
		t.Errorf("full queue: got %v, want HTTP 429 %s", err, CodeQueueFull)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	// Drain: no new work, health reports draining, old jobs stay readable.
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBatch(ctx, big[:1]); err == nil {
		t.Error("draining server accepted a job")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != CodeDraining {
		t.Errorf("draining submit: got %v, want HTTP 503 %s", err, CodeDraining)
	}
	if _, err := c.Simulate(ctx, big[0]); err == nil {
		t.Error("draining server accepted a synchronous simulate")
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.OK || !h.Draining {
		t.Errorf("health while draining: %+v", h)
	}
	if _, err := c.Job(ctx, st.ID); err != nil {
		t.Errorf("finished job unreadable while draining: %v", err)
	}
}

// evictThenForward intercepts the client's follow-up GET /v1/jobs/{id}
// (the non-stream one Wait issues after its stream ends) and, before
// forwarding it, forces the job out of retention — deterministically
// reproducing the race where eviction lands between the stream's done event
// and the status fetch.
type evictThenForward struct {
	base  http.RoundTripper
	jobID string
	once  sync.Once
	evict func()
}

func (e *evictThenForward) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && req.URL.Path == "/v1/jobs/"+e.jobID {
		e.once.Do(e.evict)
	}
	return e.base.RoundTrip(req)
}

// TestWaitSurvivesRetentionEviction pins the finished-job retention race:
// with retention shrunk to 1, the job Wait is following is evicted between
// its stream ending and the follow-up GET. Wait must return the terminal
// done status with every record — synthesized from the stream — instead of
// a spurious not-found error or a record-less status.
func TestWaitSurvivesRetentionEviction(t *testing.T) {
	_, plain, ts := newTestServer(t, Options{Workers: 2, FinishedJobRetention: 1})
	ctx := context.Background()
	specs := []harness.Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "art", Predictor: "none"},
	}

	rt := &evictThenForward{base: http.DefaultTransport}
	rt.evict = func() {
		// A filler job takes the single retention slot...
		filler, err := plain.SubmitBatch(ctx, specRequests([]harness.Spec{{Kernel: "mcf", Predictor: "none"}}))
		if err != nil {
			t.Errorf("filler submit: %v", err)
			return
		}
		if _, err := plain.Stream(ctx, filler.ID, nil); err != nil {
			t.Errorf("filler stream: %v", err)
			return
		}
		// ...and the watched job must actually be gone before the GET goes
		// through (eviction runs as the filler finalizes; poll it home).
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			_, err := plain.Job(ctx, rt.jobID)
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Error("watched job was never evicted")
	}
	c := client.NewWithHTTPClient(ts.URL, &http.Client{Transport: rt})

	st, err := c.SubmitBatch(ctx, specRequests(specs))
	if err != nil {
		t.Fatal(err)
	}
	rt.jobID = st.ID

	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("Wait over an evicted job failed: %v", err)
	}
	if final.State != StateDone || final.Completed != len(specs) {
		t.Fatalf("synthesized status = state %q completed %d, want %q/%d (error: %s)",
			final.State, final.Completed, StateDone, len(specs), final.Error)
	}
	if len(final.Records) != len(specs) {
		t.Fatalf("synthesized status carries %d records, want %d", len(final.Records), len(specs))
	}
	for i, rec := range final.Records {
		if rec.Kernel != specs[i].Kernel || rec.IPC <= 0 {
			t.Errorf("record %d lost in eviction: %+v", i, rec)
		}
	}
	// The race really happened: the job is gone server-side.
	if _, err := plain.Job(ctx, st.ID); err == nil {
		t.Error("watched job still queryable — the test never exercised eviction")
	}
}

// TestStreamFormats checks both stream transports: NDJSON replay for an
// already-finished job, and SSE framing.
func TestStreamFormats(t *testing.T) {
	_, c, ts := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	reqs := specRequests([]harness.Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "lvp"},
	})
	st, err := c.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	// NDJSON replay after completion: full event history, then done.
	var types []string
	final, err := c.Stream(ctx, st.ID, func(ev Event) error {
		types = append(types, ev.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Errorf("replayed done event has state %q", final.State)
	}
	records := 0
	for _, ty := range types {
		if ty == "record" {
			records++
		}
	}
	if records != len(reqs) || types[len(types)-1] != "done" {
		t.Errorf("replayed events %v, want %d records ending in done", types, len(reqs))
	}

	// SSE framing: data: prefixed lines.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	var sse bytes.Buffer
	if _, err := sse.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sse.String(), "data: {") {
		t.Errorf("SSE body lacks data frames:\n%s", sse.String())
	}
}

// BenchmarkServerThroughput measures served specs/second through the full
// HTTP path with a warm memo, for interactive use; the benchmark's
// serve-warm workload is the serving path's measure of record. Each
// iteration submits the deduplicated fig4 batch and waits for its records.
func BenchmarkServerThroughput(b *testing.B) {
	_, c, _ := newTestServer(b, Options{Workers: 4})
	ctx := context.Background()
	specs := harness.DedupSpecs(harness.Fig4Specs())
	reqs := specRequests(specs)
	warm := func() {
		st, err := c.SubmitBatch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if final, err := c.Wait(ctx, st.ID); err != nil || final.State != StateDone {
			b.Fatalf("warm batch: %v state=%v", err, final.State)
		}
	}
	warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.SubmitBatch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs))*float64(b.N)/b.Elapsed().Seconds(), "specs/s")
}

// TestAblationExperimentCancelMidSimulation is the PR 4 acceptance pin:
// with the render semaphore gone, an ablation experiment job — whose sweep
// points are now pre-declared extended specs fanned through the shared
// worker pool — must be cancellable mid-simulation, freeing its workers
// (observable via /v1/statsz) and ending canceled.
func TestAblationExperimentCancelMidSimulation(t *testing.T) {
	// Long windows so the sweep is mid-flight when the DELETE lands.
	_, c, _ := newTestServer(t, Options{Workers: 2, Warmup: 10_000, Measure: 1_500_000})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	st, err := c.SubmitExperiment(ctx, "abl-hist")
	if err != nil {
		t.Fatal(err)
	}
	if st.Specs == 0 {
		t.Fatalf("abl-hist declared no specs; the ablation is not pool-scheduled: %+v", st)
	}

	waitFor := func(what string, cond func(ServerStats) bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			stats, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if cond(stats) {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitFor("ablation simulations in flight", func(s ServerStats) bool { return s.BusyWorkers > 0 })

	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	waitFor("workers freed after cancel", func(s ServerStats) bool {
		return s.BusyWorkers == 0 && s.QueuedTasks == 0
	})

	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("cancelled ablation job is %q, want %q", final.State, StateCanceled)
	}
	if final.Artifact != "" {
		t.Errorf("cancelled job rendered an artifact anyway (%d bytes)", len(final.Artifact))
	}
}

// TestCanceledJobReturnsPartialRecords: records that completed before a
// DELETE are returned on the canceled job's terminal status instead of
// being discarded.
func TestCanceledJobReturnsPartialRecords(t *testing.T) {
	_, c, _ := newTestServer(t, Options{Workers: 2, Warmup: 5_000, Measure: 800_000})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var reqs []SpecRequest
	for _, k := range []string{"gzip", "art", "parser"} {
		for _, p := range []string{"none", "lvp"} {
			reqs = append(reqs, SpecRequest{Kernel: k, Predictor: p})
		}
	}
	st, err := c.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		cur, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Completed >= 2 || cur.Finished() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed its first records")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		// With small kernels the batch can occasionally finish before the
		// DELETE lands; that run proves nothing about partial records.
		if final.State == StateDone {
			t.Skip("batch finished before the cancel landed; nothing partial to assert")
		}
		t.Fatalf("job finished %q, want %q", final.State, StateCanceled)
	}
	if len(final.Records) != len(reqs) {
		t.Fatalf("canceled job carries %d records, want %d (zero-filled)", len(final.Records), len(reqs))
	}
	have := 0
	for _, r := range final.Records {
		if r.Kernel != "" {
			if r.IPC <= 0 {
				t.Errorf("degenerate partial record: %+v", r)
			}
			have++
		}
	}
	if have == 0 {
		t.Error("canceled job returned no partial records despite completed specs")
	}

	// The stream's accounting must be exact even under cancellation: every
	// requested spec emits a record or a per-spec error event before done.
	recorded, errored := 0, 0
	if _, err := c.Stream(ctx, st.ID, func(ev Event) error {
		switch ev.Type {
		case "record":
			recorded++
		case "error":
			errored++
			if ev.Error == "" {
				t.Errorf("error event without a message: %+v", ev)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if recorded != have || recorded+errored != len(reqs) {
		t.Errorf("stream accounted %d records + %d errors over %d specs (%d recorded on the job)",
			recorded, errored, len(reqs), have)
	}
}

// TestExtendedSpecOverWire drives one extended-key spec through the full
// HTTP path: the knob must reach the simulator, the record must echo the
// canonical key, and invalid extended specs must be 400s.
func TestExtendedSpecOverWire(t *testing.T) {
	_, c, _ := newTestServer(t, Options{})
	ctx := context.Background()
	rec, err := c.Simulate(ctx, SpecRequest{Kernel: "art", Predictor: "vtage", Counters: "fpc", Width: 4, MaxHist: 256})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Width != 4 || rec.MaxHist != 256 || rec.IPC <= 0 || rec.Speedup <= 0 {
		t.Errorf("extended record did not round-trip: %+v", rec)
	}
	// An explicit vector equal to a named scheme folds onto it on the wire.
	rec, err = c.Simulate(ctx, SpecRequest{Kernel: "art", Predictor: "lvp", FPCVector: "0,4,4,4,4,5,5"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Counters != "FPC" || rec.FPCVector != "" {
		t.Errorf("canonicalization did not fold the explicit vector onto FPC: %+v", rec)
	}
	for _, bad := range []SpecRequest{
		{Kernel: "art", Predictor: "lvp", Width: 99},
		{Kernel: "art", Predictor: "lvp", MaxHist: 256},
		{Kernel: "art", Predictor: "vtage", MaxHist: 1},
		{Kernel: "art", Predictor: "vtage", FPCVector: "1,2,3"},
	} {
		var apiErr *client.APIError
		if _, err := c.Simulate(ctx, bad); err == nil {
			t.Errorf("bad extended spec %+v accepted", bad)
		} else if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Code != CodeBadRequest {
			t.Errorf("bad extended spec %+v: got %v, want HTTP 400 %s", bad, err, CodeBadRequest)
		}
	}
}

// TestBatchSync drives the batched synchronous wire path: one frame of many
// specs (duplicates included) must answer records byte-identical to a
// sequential Session over the same specs, in request order; malformed and
// unknown-program frames must fail with the standard typed errors.
func TestBatchSync(t *testing.T) {
	_, c, _ := newTestServer(t, Options{Workers: 2, MaxBatch: 8})
	ctx := context.Background()

	specs := []harness.Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "vtage"},
		{Kernel: "art", Predictor: "vtage"},
		{Kernel: "gzip", Predictor: "vtage"}, // duplicate: dedup must not reorder
		{Kernel: "art", Predictor: "none"},
	}
	ref := harness.NewSession(testWarmup, testMeasure)
	want, err := ref.Records(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.SimulateBatchSync(ctx, specRequests(specs))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("batch-sync records differ from sequential session:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	var apiErr *client.APIError
	if _, err := c.SimulateBatchSync(ctx, nil); err == nil {
		t.Error("empty batch-sync frame accepted")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("empty frame: got %v, want HTTP 400", err)
	}
	big := make([]SpecRequest, 9)
	for i := range big {
		big[i] = RequestFor(harness.Spec{Kernel: "gzip", Predictor: "none"})
	}
	if _, err := c.SimulateBatchSync(ctx, big); err == nil {
		t.Error("oversized batch-sync frame accepted")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 413 || apiErr.Code != CodeTooLarge {
		t.Errorf("oversized frame: got %v, want HTTP 413 %s", err, CodeTooLarge)
	}
	ghost := []SpecRequest{
		RequestFor(harness.Spec{Kernel: "gzip", Predictor: "none"}),
		{Program: "prog:" + strings.Repeat("ab", 32), Predictor: "lvp"},
	}
	if _, err := c.SimulateBatchSync(ctx, ghost); err == nil {
		t.Error("unknown-program frame accepted")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != CodeUnknownProgram {
		t.Errorf("unknown-program frame: got %v, want HTTP 404 %s", err, CodeUnknownProgram)
	}
}

// TestDrainWindowHealthz is the drain-window e2e test: while a drain is in
// progress (jobs still running), /v1/healthz must flip to 503 with a
// {"draining":true} body — on the raw wire, so status-code-only probes see
// it too — while already-admitted work runs to completion; once drained,
// the batched sync path must refuse new frames with 503 draining.
func TestDrainWindowHealthz(t *testing.T) {
	srv, c, ts := newTestServer(t, Options{Workers: 1, ShardID: "shard-drain"})
	ctx := context.Background()

	// Before drain: 200 on the raw wire, ok body, shard id echoed.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !h.OK || h.Draining || h.ShardID != "shard-drain" {
		t.Fatalf("pre-drain healthz: code=%d body=%+v", resp.StatusCode, h)
	}

	// Admit real work, then drain concurrently: the drain window is open
	// until the job finishes.
	st, err := c.SubmitBatch(ctx, specRequests([]harness.Spec{
		{Kernel: "gzip", Predictor: "vtage"},
		{Kernel: "art", Predictor: "vtage"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	// Inside the window: raw 503, draining body; the typed client treats it
	// as a report, not an error.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if h.OK || !h.Draining {
				t.Fatalf("draining healthz body: %+v", h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503 during drain")
		}
		time.Sleep(time.Millisecond)
	}
	hh, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("typed client errored on draining healthz: %v", err)
	}
	if hh.OK || !hh.Draining || hh.ShardID != "shard-drain" {
		t.Errorf("typed draining health: %+v", hh)
	}

	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	// The admitted job ran to completion through the drain.
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || len(final.Records) != 2 {
		t.Errorf("job through drain: state=%s records=%d", final.State, len(final.Records))
	}
	// New frames are refused.
	var apiErr *client.APIError
	if _, err := c.SimulateBatchSync(ctx, specRequests([]harness.Spec{{Kernel: "gzip", Predictor: "none"}})); err == nil {
		t.Error("draining server accepted a batch-sync frame")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != CodeDraining {
		t.Errorf("draining batch-sync: got %v, want HTTP 503 %s", err, CodeDraining)
	}
}

// TestStatszShardBlock: /v1/statsz carries the shard identity block, with
// the configured -shard-id and a live uptime.
func TestStatszShardBlock(t *testing.T) {
	_, c, _ := newTestServer(t, Options{ShardID: "fleet-3"})
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shard.ID != "fleet-3" || st.Shard.StartUnix == 0 || st.Shard.UptimeSeconds < 0 {
		t.Errorf("shard block: %+v", st.Shard)
	}
}

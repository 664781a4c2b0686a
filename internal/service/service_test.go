// The end-to-end tests live outside the package so they can use the typed
// client (which imports service); the dot-import keeps the wire types
// readable.
package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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

// collect runs se.Records over specs and gathers the records in spec order.
func collect(se *harness.Session, specs []harness.Spec) ([]harness.Record, error) {
	var recs []harness.Record
	_, err := se.Records(context.Background(), specs, func(r harness.Record) error {
		recs = append(recs, r)
		return nil
	})
	return recs, err
}

// simulate runs one spec as a one-spec batch-sync frame, the form a
// runner's Simulate sends.
func simulate(ctx context.Context, c *client.Client, spec harness.Spec) (harness.Record, error) {
	recs, err := c.SimulateBatchSync(ctx, []harness.Spec{spec})
	if err != nil {
		return harness.Record{}, err
	}
	return recs[0], nil
}

// TestServerEndToEndConcurrentClients is the subsystem's acceptance test
// (run it with -race): several clients concurrently send overlapping fig4
// batch-sync frames; every frame's records must be byte-identical to a
// sequential Session.Records over the same specs on a fresh session, the
// shared memo must show cross-request hits afterwards, and no worker may
// stay busy.
func TestServerEndToEndConcurrentClients(t *testing.T) {
	_, c, _ := newTestServer(t, Options{Workers: 4})
	specs := harness.Fig4Specs()

	// The sequential reference on an independent session.
	ref := harness.NewSession(harness.SessionConfig{Warmup: testWarmup, Measure: testMeasure})
	want, err := collect(ref, specs)
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
	errs := make([]error, clients)
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			got[n], errs[n] = c.SimulateBatchSync(ctx, specs)
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
			t.Errorf("client %d: served records differ from sequential Session.Records", n)
		}
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemoHits == 0 {
		t.Error("no cross-request memo hits after overlapping frames")
	}
	if stats.BusyWorkers != 0 {
		t.Errorf("%d workers still busy after all frames answered", stats.BusyWorkers)
	}
}

// cancelFrameMidFlight sends specs as one batch-sync frame, cancels the
// request once /v1/statsz shows busy workers, and requires the frame to end
// canceled with every worker and queued task released.
func cancelFrameMidFlight(t *testing.T, ctx context.Context, c *client.Client, specs []harness.Spec) {
	t.Helper()
	reqCtx, cancelReq := context.WithCancel(ctx)
	defer cancelReq()
	answered := make(chan error, 1)
	go func() {
		_, err := c.SimulateBatchSync(reqCtx, specs)
		answered <- err
	}()

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

	cancelReq()
	if err := <-answered; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled frame returned %v, want context.Canceled", err)
	}
	waitFor("workers freed", func(s ServerStats) bool {
		return s.BusyWorkers == 0 && s.QueuedTasks == 0
	})
}

// TestServerCancelFreesWorkers: a batch-sync request whose client goes away
// mid-simulation must release its workers, observable through /v1/statsz,
// while the memo stays healthy for later runs of the same specs.
func TestServerCancelFreesWorkers(t *testing.T) {
	// Long measurement windows so the frame is mid-flight when cancelled.
	_, c, _ := newTestServer(t, Options{Workers: 2, Warmup: 10_000, Measure: 1_500_000})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var specs []harness.Spec
	for _, k := range []string{"gzip", "art"} {
		for _, p := range []string{"none", "lvp", "stride"} {
			specs = append(specs, harness.Spec{Kernel: k, Predictor: p})
		}
	}
	cancelFrameMidFlight(t, ctx, c, specs)

	// The abandoned runs must not have been memoized as failures: a
	// follow-up simulate of the frame's first spec, in flight when the
	// cancel landed, succeeds.
	rec, err := simulate(ctx, c, specs[0])
	if err != nil {
		t.Fatalf("simulate after cancel: %v", err)
	}
	if rec.IPC <= 0 {
		t.Errorf("post-cancel simulate returned empty record: %+v", rec)
	}
}

// TestAblationExperimentCancelMidSimulation: an ablation's sweep points are
// declared extended specs walked over the session's worker slots, so a frame
// of abl-hist's declared specs — the sweep CI also cancels — must be
// cancellable mid-simulation, freeing its workers.
func TestAblationExperimentCancelMidSimulation(t *testing.T) {
	// Long windows so the sweep is mid-flight when the client goes away.
	_, c, _ := newTestServer(t, Options{Workers: 2, Warmup: 10_000, Measure: 1_500_000})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	e, _ := harness.ExperimentByID("abl-hist")
	specs := e.Specs()
	if len(specs) == 0 {
		t.Fatal("abl-hist declared no specs; the ablation is not pool-scheduled")
	}
	cancelFrameMidFlight(t, ctx, c, specs)
}

// TestSimulateSync covers one spec on the synchronous wire, sent as a
// one-spec batch-sync frame: a valid spec returns a record with a real
// speedup, the same record it gets inside a larger frame; a warm repeat
// counts one memo hit per task — the spec and its baseline, the record
// built from their results without another lookup — and no miss; bad
// specs, unknown programs and a draining server fail with their status and
// code, and so do spellings no harness.Spec can hold, sent as raw bodies;
// and POST /v1/simulate answers 404, since one spec is a one-spec frame.
func TestSimulateSync(t *testing.T) {
	srv, c, ts := newTestServer(t, Options{})
	ctx := context.Background()
	spec := harness.Spec{Kernel: "art", Predictor: "vtage", Counters: harness.FPC}
	rec, err := simulate(ctx, c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kernel != "art" || rec.Predictor != "vtage" || rec.Speedup <= 0 {
		t.Errorf("bad record: %+v", rec)
	}
	frame, err := c.SimulateBatchSync(ctx, []harness.Spec{{Kernel: "art", Predictor: "none"}, spec})
	if err != nil {
		t.Fatal(err)
	}
	if frame[1] != rec {
		t.Errorf("frames disagree:\none spec  %+v\ntwo specs %+v", rec, frame[1])
	}
	before := srv.Stats()
	if _, err := simulate(ctx, c, spec); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if hits, misses := after.MemoHits-before.MemoHits, after.MemoMisses-before.MemoMisses; hits != 2 || misses != 0 {
		t.Errorf("warm simulate counted %d memo hits and %d misses, want 2 and 0", hits, misses)
	}

	fails := func(spec harness.Spec, status int, code string) {
		t.Helper()
		_, err := simulate(ctx, c, spec)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status || apiErr.Code != code {
			t.Errorf("spec %+v: got %v, want HTTP %d %s", spec, err, status, code)
		}
	}
	for _, bad := range []harness.Spec{
		{Kernel: "nope", Predictor: "lvp"},
		{Kernel: "art", Predictor: "nope"},
	} {
		fails(bad, http.StatusBadRequest, CodeBadRequest)
	}
	fails(harness.Spec{Program: "prog:" + strings.Repeat("ab", 32), Predictor: "lvp"},
		http.StatusNotFound, CodeUnknownProgram)
	for _, tc := range []struct{ body, msg string }{
		{`{"specs":[{"kernel":"art","predictor":"lvp","counters":"nope"}]}`,
			`bad request body: unknown counters "nope" (have baseline, fpc)`},
		{`{"specs":[{"kernel":"art","predictor":"lvp","recovery":"nope"}]}`,
			`bad request body: unknown recovery "nope" (have squash, reissue)`},
	} {
		resp, err := http.Post(ts.URL+"/v1/simulate/batch-sync", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr APIError
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || apiErr.Code != CodeBadRequest || apiErr.Msg != tc.msg {
			t.Errorf("%s: HTTP %d %+v (%v), want 400 %s %q", tc.body, resp.StatusCode, apiErr, err, CodeBadRequest, tc.msg)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(`{"kernel":"art","predictor":"lvp"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/simulate: HTTP %d, want 404 (one spec is a one-spec batch-sync frame)", resp.StatusCode)
	}

	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	fails(spec, http.StatusServiceUnavailable, CodeDraining)
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
		{"/v1/simulate/batch-sync", frame, http.StatusOK},
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

// TestBatchSyncBodiesAtTheirLength: a batch-sync response goes out with
// its Content-Length, so the client can size its read buffer from it, even
// when it is larger than net/http's 2 KB response buffer and would
// otherwise be chunked. A request body shorter than its header, and one
// over the 16 MiB limit, answer 400 bad_request.
func TestBatchSyncBodiesAtTheirLength(t *testing.T) {
	_, _, ts := newTestServer(t, Options{Workers: 1})
	frame := `{"specs":[` + strings.Repeat(`{"kernel":"gzip","predictor":"none"},`, 31) + `{"kernel":"gzip","predictor":"none"}]}`
	resp, err := http.Post(ts.URL+"/v1/simulate/batch-sync", "application/json", strings.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("32-spec frame: HTTP %d: %s", resp.StatusCode, body)
	}
	if len(body) <= 2048 || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%d-B response: Content-Length %d, Transfer-Encoding %v; want its length, not chunked",
			len(body), resp.ContentLength, resp.TransferEncoding)
	}

	badRequest := func(name string, resp *http.Response) {
		t.Helper()
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var apiErr APIError
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &apiErr) != nil || apiErr.Code != CodeBadRequest {
			t.Errorf("%s: HTTP %d %s, want 400 %s", name, resp.StatusCode, body, CodeBadRequest)
		}
	}
	// A header 1,000 bytes longer than the body, then the end of the
	// request: the daemon reads what came and answers.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/simulate/batch-sync HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(frame)+1000, frame)
	conn.(*net.TCPConn).CloseWrite()
	short, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	badRequest("body shorter than its header", short)

	over, err := http.Post(ts.URL+"/v1/simulate/batch-sync", "application/json",
		strings.NewReader(frame+strings.Repeat(" ", 16<<20)))
	if err != nil {
		t.Fatal(err)
	}
	badRequest("body over 16 MiB", over)
}

// TestReadBodySizesFromLength: ReadBody reads every body whole, reads one
// that matches its declared length in a single allocation, and never sizes
// its buffer from a header past the limit.
func TestReadBodySizesFromLength(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 1400) // 22,400 B
	n := int64(len(body))
	for _, tc := range []struct {
		name          string
		length, limit int64
	}{
		{"matching length", n, 1 << 20},
		{"unknown length", -1, 1 << 20},
		{"length over the limit", 1 << 40, 4096},
		{"length past the body", n + 100, 1 << 20},
	} {
		if got, err := ReadBody(bytes.NewReader(body), tc.length, tc.limit); err != nil || !bytes.Equal(got, body) {
			t.Errorf("%s: read %d B, %v; want the %d-B body", tc.name, len(got), err, len(body))
		}
	}
	r := bytes.NewReader(body)
	if allocs := testing.AllocsPerRun(10, func() { r.Reset(body); ReadBody(r, n, 1<<20) }); allocs != 1 {
		t.Errorf("matching length: %.0f allocations, want 1", allocs)
	}
	// A header promising a terabyte over ten bytes allocates a small
	// buffer, not the header's size.
	if got, err := ReadBody(strings.NewReader("0123456789"), 1<<40, 4096); err != nil || string(got) != "0123456789" || cap(got) > 4096 {
		t.Errorf("oversized header: %q (cap %d), %v", got, cap(got), err)
	}
}

// TestAdmissionLimits: an oversized batch-sync frame is rejected with 413,
// and a draining server answers 503 while reporting itself draining.
func TestAdmissionLimits(t *testing.T) {
	srv, c, _ := newTestServer(t, Options{Workers: 1, MaxBatch: 4})
	ctx := context.Background()

	big := []harness.Spec{
		{Kernel: "gzip", Predictor: "none"}, {Kernel: "gzip", Predictor: "lvp"},
		{Kernel: "art", Predictor: "none"}, {Kernel: "art", Predictor: "lvp"},
		{Kernel: "parser", Predictor: "none"},
	}
	var apiErr *client.APIError
	if _, err := c.SimulateBatchSync(ctx, big); err == nil {
		t.Error("oversized frame accepted")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 413 || apiErr.Code != CodeTooLarge {
		t.Errorf("oversized frame: got %v, want HTTP 413 %s", err, CodeTooLarge)
	}
	if _, err := c.SimulateBatchSync(ctx, big[:4]); err != nil {
		t.Fatalf("frame at the limit: %v", err)
	}

	// Drain: no new work, health reports draining.
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SimulateBatchSync(ctx, big[:1]); err == nil {
		t.Error("draining server accepted a frame")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != CodeDraining {
		t.Errorf("draining frame: got %v, want HTTP 503 %s", err, CodeDraining)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.OK || !h.Draining {
		t.Errorf("health while draining: %+v", h)
	}
}

// BenchmarkServerThroughput measures served specs/second through the full
// HTTP path with a warm memo, for interactive use; the benchmark's
// serve-warm workload is the serving path's measure of record. Each
// iteration sends the deduplicated fig4 set as one batch-sync frame.
func BenchmarkServerThroughput(b *testing.B) {
	_, c, _ := newTestServer(b, Options{Workers: 4})
	ctx := context.Background()
	specs := harness.DedupSpecs(harness.Fig4Specs())
	if _, err := c.SimulateBatchSync(ctx, specs); err != nil {
		b.Fatalf("warm frame: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SimulateBatchSync(ctx, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs))*float64(b.N)/b.Elapsed().Seconds(), "specs/s")
}

// TestExtendedSpecOverWire drives one extended-key spec through the full
// HTTP path: the knob must reach the simulator, the record must echo the
// canonical key, and invalid extended specs must be 400s.
func TestExtendedSpecOverWire(t *testing.T) {
	_, c, _ := newTestServer(t, Options{})
	ctx := context.Background()
	rec, err := simulate(ctx, c, harness.Spec{Kernel: "art", Predictor: "vtage", Counters: harness.FPC, Width: 4, MaxHist: 256})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Width != 4 || rec.MaxHist != 256 || rec.IPC <= 0 || rec.Speedup <= 0 {
		t.Errorf("extended record did not round-trip: %+v", rec)
	}
	// An explicit vector equal to a named scheme folds onto it on the wire.
	rec, err = simulate(ctx, c, harness.Spec{Kernel: "art", Predictor: "lvp", FPCVec: "0,4,4,4,4,5,5"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Counters != "FPC" || rec.FPCVector != "" {
		t.Errorf("canonicalization did not fold the explicit vector onto FPC: %+v", rec)
	}
	for _, bad := range []harness.Spec{
		{Kernel: "art", Predictor: "lvp", Width: 99},
		{Kernel: "art", Predictor: "lvp", MaxHist: 256},
		{Kernel: "art", Predictor: "vtage", MaxHist: 1},
		{Kernel: "art", Predictor: "vtage", FPCVec: "1,2,3"},
	} {
		var apiErr *client.APIError
		if _, err := simulate(ctx, c, bad); err == nil {
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
	ref := harness.NewSession(harness.SessionConfig{Warmup: testWarmup, Measure: testMeasure})
	want, err := collect(ref, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.SimulateBatchSync(ctx, specs)
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
	big := make([]harness.Spec, 9)
	for i := range big {
		big[i] = harness.Spec{Kernel: "gzip", Predictor: "none"}
	}
	if _, err := c.SimulateBatchSync(ctx, big); err == nil {
		t.Error("oversized batch-sync frame accepted")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 413 || apiErr.Code != CodeTooLarge {
		t.Errorf("oversized frame: got %v, want HTTP 413 %s", err, CodeTooLarge)
	}
	ghost := []harness.Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Program: "prog:" + strings.Repeat("ab", 32), Predictor: "lvp"},
	}
	if _, err := c.SimulateBatchSync(ctx, ghost); err == nil {
		t.Error("unknown-program frame accepted")
	} else if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != CodeUnknownProgram {
		t.Errorf("unknown-program frame: got %v, want HTTP 404 %s", err, CodeUnknownProgram)
	}
}

// TestDrainWindowHealthz is the drain-window e2e test: while a drain is in
// progress (a frame still simulating), /v1/healthz must flip to 503 with a
// {"draining":true} body — on the raw wire, so status-code-only probes see
// it too — while the frame admitted before the drain still answers 200
// with its records; once drained, the batched sync path must refuse new
// frames with 503 draining.
func TestDrainWindowHealthz(t *testing.T) {
	// Windows long enough that the frame is still simulating when the
	// drain begins.
	srv, c, ts := newTestServer(t, Options{Workers: 1, Warmup: 2_000, Measure: 300_000, ShardID: "shard-drain"})
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
	// until the frame answers.
	type answer struct {
		recs []harness.Record
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		recs, err := c.SimulateBatchSync(ctx, []harness.Spec{
			{Kernel: "gzip", Predictor: "vtage"},
			{Kernel: "art", Predictor: "vtage"},
		})
		answered <- answer{recs, err}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for srv.Stats().BusyWorkers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the frame never reached a worker")
		}
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	// Inside the window: raw 503, draining body; the typed client treats it
	// as a report, not an error.
	deadline = time.Now().Add(10 * time.Second)
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
	// The admitted frame ran to completion through the drain.
	a := <-answered
	if a.err != nil || len(a.recs) != 2 || a.recs[1].Kernel != "art" {
		t.Errorf("frame through drain: %d records, error %v", len(a.recs), a.err)
	}
	// New frames are refused.
	var apiErr *client.APIError
	if _, err := c.SimulateBatchSync(ctx, []harness.Spec{{Kernel: "gzip", Predictor: "none"}}); err == nil {
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

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/service/client"
)

const (
	testWarmup  = 1_000
	testMeasure = 4_000
)

// startShards brings up n real service instances and a fleet front over
// them, returning the front plus the underlying servers (for Drain) and
// their test listeners (for kills).
func startShards(t *testing.T, n int) (*Runner, []*service.Server, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	srvs := make([]*service.Server, n)
	tss := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		srv, err := service.New(service.Options{Warmup: testWarmup, Measure: testMeasure})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls[i], srvs[i], tss[i] = ts.URL, srv, ts
	}
	f, err := New(Options{Shards: urls, ProbeInterval: -1}) // probes on demand only
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, srvs, tss
}

func refRecords(t *testing.T, specs []harness.Spec) []harness.Record {
	t.Helper()
	se := harness.NewSession(harness.SessionConfig{Warmup: testWarmup, Measure: testMeasure})
	var recs []harness.Record
	if _, err := se.Records(context.Background(), specs, func(r harness.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFleetSimulateAndBatch: routed results are byte-identical to a local
// session, one spec or many, Records delivers in spec order, and the work
// really spreads — with
// the fig4 spec set over two shards, both end up with simulations.
func TestFleetSimulateAndBatch(t *testing.T) {
	f, _, tss := startShards(t, 2)
	ctx := context.Background()
	specs := harness.Fig4Specs()[:24]
	want := refRecords(t, specs)

	rec, err := simulate(ctx, f, specs[1])
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, rec), mustJSON(t, want[1]); !bytes.Equal(a, b) {
		t.Errorf("Simulate record differs:\n got %s\nwant %s", a, b)
	}

	var got []harness.Record
	if err := batch(ctx, f, specs, func(r harness.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(a, b) {
		t.Errorf("Records differ from local session:\n got %s\nwant %s", a, b)
	}

	// Both shards simulated something: the scatter really sharded.
	for i, ts := range tss {
		st, err := client.New(ts.URL).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.MemoMisses == 0 {
			t.Errorf("shard %d ran no simulations: scatter did not shard", i)
		}
	}
}

// simulate runs one spec as a one-spec Records call, as the facade's
// Simulate does.
func simulate(ctx context.Context, f *Runner, spec harness.Spec) (harness.Record, error) {
	var rec harness.Record
	_, err := f.Records(ctx, []harness.Spec{spec}, func(r harness.Record) error {
		rec = r
		return nil
	})
	return rec, err
}

// batch runs specs through Records and names a failing spec as the facade's
// Batch does ("spec N: ...").
func batch(ctx context.Context, f *Runner, specs []harness.Spec, fn func(harness.Record) error) error {
	failed, err := f.Records(ctx, specs, fn)
	if failed >= 0 {
		return fmt.Errorf("spec %d: %w", failed, err)
	}
	return err
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ownedBy returns a fig4 spec whose ring owner is shard, so a test can aim a
// single-spec call at that shard (the ring hashes the test servers' random
// URLs, so the owner of any one spec changes from run to run).
func ownedBy(t *testing.T, f *Runner, shard int) harness.Spec {
	t.Helper()
	for _, sp := range harness.Fig4Specs() {
		if f.ring.candidates(sp.Identity())[0] == shard {
			return sp
		}
	}
	t.Fatalf("no fig4 spec is owned by shard %d", shard)
	return harness.Spec{}
}

// TestFleetFailoverDeadShard: a fleet with one dead member still answers
// everything (work re-routes to the survivor) and the dead shard is marked
// down for the status view. A single spec the dead shard owns re-routes on
// its own, before any batch has marked the shard, and so does a
// single-shard call.
func TestFleetFailoverDeadShard(t *testing.T) {
	f, _, tss := startShards(t, 2)
	ctx := context.Background()
	specs := harness.Fig4Specs()[:12]
	want := refRecords(t, specs)

	tss[0].Close() // kill one shard before any traffic

	one := ownedBy(t, f, 0)
	rec, err := simulate(ctx, f, one)
	if err != nil {
		t.Fatalf("Simulate on a dead owner: %v", err)
	}
	if a, b := mustJSON(t, rec), mustJSON(t, refRecords(t, []harness.Spec{one})[0]); !bytes.Equal(a, b) {
		t.Errorf("Simulate record differs after failover:\n got %s\nwant %s", a, b)
	}
	f.shards[0].setState(stUp, nil) // forget the mark: meet the dead shard again
	key := "probe"
	for f.ring.candidates(key)[0] != 0 {
		key += "+"
	}
	var served string
	if err := f.onShard(key, func(s *shard) error {
		served = s.url
		_, err := s.c.Stats(ctx)
		return err
	}); err != nil || served != tss[1].URL {
		t.Errorf("single-shard call on a dead owner: served by %s, error %v", served, err)
	}

	var got []harness.Record
	if err := batch(ctx, f, specs, func(r harness.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(a, b) {
		t.Errorf("records differ after failover:\n got %s\nwant %s", a, b)
	}

	f.ProbeOnce(ctx)
	states := f.Shards()
	if states[0].State != StateDown {
		t.Errorf("dead shard state = %s, want %s (%+v)", states[0].State, StateDown, states)
	}
	if states[1].State != StateUp {
		t.Errorf("surviving shard state = %s, want %s", states[1].State, StateUp)
	}
}

// TestFleetDrainAwareRouting: once a shard drains, a single spec it owns is
// answered 503 draining and re-routes at dispatch, marking the shard before
// any probe; probing marks it too, and new work lands only on the
// survivors — while results stay identical.
func TestFleetDrainAwareRouting(t *testing.T) {
	f, srvs, _ := startShards(t, 2)
	ctx := context.Background()
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srvs[0].Drain(dctx); err != nil {
		t.Fatal(err)
	}

	one := ownedBy(t, f, 0)
	rec, err := simulate(ctx, f, one)
	if err != nil {
		t.Fatalf("Simulate on a draining owner: %v", err)
	}
	if a, b := mustJSON(t, rec), mustJSON(t, refRecords(t, []harness.Spec{one})[0]); !bytes.Equal(a, b) {
		t.Errorf("Simulate record differs through drain:\n got %s\nwant %s", a, b)
	}
	if st := f.Shards()[0].State; st != StateDraining {
		t.Fatalf("dispatch left the drained shard %s, want %s", st, StateDraining)
	}

	f.ProbeOnce(ctx)
	if st := f.Shards()[0].State; st != StateDraining {
		t.Fatalf("drained shard state = %s, want %s", st, StateDraining)
	}

	specs := harness.Fig4Specs()[:8]
	want := refRecords(t, specs)
	var got []harness.Record
	if err := batch(ctx, f, specs, func(r harness.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(a, b) {
		t.Errorf("records differ through drain:\n got %s\nwant %s", a, b)
	}
}

// TestFleetPerSpecFailureAttribution: a bad spec inside a frame fails the
// batch with that spec's index, not a whole-frame mystery — the bisect path.
func TestFleetPerSpecFailureAttribution(t *testing.T) {
	f, _, _ := startShards(t, 2)
	ctx := context.Background()
	// Index 2 names a program no shard has: a real per-spec failure that
	// re-routing must not mask.
	specs := []harness.Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "lvp"},
		{Kernel: "prog:" + string(bytes.Repeat([]byte("ab"), 32)), Predictor: "lvp"},
		{Kernel: "art", Predictor: "none"},
	}
	err := batch(ctx, f, specs, func(harness.Record) error { return nil })
	if err == nil {
		t.Fatal("batch with an unknown program succeeded")
	}
	if want := "spec 2:"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not attribute the failure to spec 2", err)
	}
}

// TestClassifyTaxonomy pins the routing taxonomy dispatch acts on: only a
// shard that never answered or answered draining is rerouted around, only
// unknown_program is cured in place, and every other answer — a 5xx
// included — is the spec's own failure, which propagates (a frame bisects
// first to name the spec).
func TestClassifyTaxonomy(t *testing.T) {
	transport := func(err error) error {
		return &url.Error{Op: "Post", URL: "http://127.0.0.1:1/v1/simulate/batch-sync", Err: err}
	}
	apiErr := func(status int, code string) error {
		return &service.APIError{Status: status, Code: code, Msg: "x"}
	}
	cases := []struct {
		name             string
		err              error
		reroute, curable bool
	}{
		{"nil", nil, false, false},
		{"connection refused", transport(&net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}), true, false},
		{"canceled", transport(context.Canceled), false, false},
		{"deadline exceeded", transport(context.DeadlineExceeded), false, false},
		{"503 draining", apiErr(503, service.CodeDraining), true, false},
		{"404 unknown_program", apiErr(404, service.CodeUnknownProgram), false, true},
		{"500 internal", apiErr(500, service.CodeInternal), false, false},
		{"504 timeout", apiErr(504, service.CodeTimeout), false, false},
		{"413 too_large", apiErr(413, service.CodeTooLarge), false, false},
		{"502 without code", apiErr(502, ""), false, false},
	}
	for _, c := range cases {
		reroute, curable := classify(c.err)
		if reroute != c.reroute || curable != c.curable {
			t.Errorf("%s: classify = (reroute %v, curable %v), want (%v, %v)",
				c.name, reroute, curable, c.reroute, c.curable)
		}
	}
}

// TestProberRunsOnlyForSeveralShards: a one-shard fleet (the remote runner)
// starts no background prober — it has nowhere else to route — while a
// two-shard fleet probes on its interval.
func TestProberRunsOnlyForSeveralShards(t *testing.T) {
	var probes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(ts.Close)
	probed := func(shards ...string) int64 {
		probes.Store(0)
		f, err := New(Options{Shards: shards, ProbeInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		f.Close()
		return probes.Load()
	}
	if n := probed(ts.URL); n != 0 {
		t.Errorf("one-shard fleet probed %d times, want 0", n)
	}
	if n := probed(ts.URL, ts.URL+"/"); n == 0 {
		t.Error("two-shard fleet never probed")
	}
}

package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// shardedFixture is a local fleet for differential tests: N in-process
// service shards behind real http.Servers (so a test can force-kill one
// mid-batch — httptest's Close politely waits for in-flight requests,
// which is exactly what a kill must not do) plus a ShardedRunner front.
type shardedFixture struct {
	runner *ShardedRunner
	httpds []*http.Server
	urls   []string
}

// kill force-closes one shard's listener and every active connection.
func (fx *shardedFixture) kill(i int) { fx.httpds[i].Close() }

func newShardedFixture(t testing.TB, shards int) *shardedFixture {
	t.Helper()
	return newStoredFixture(t, shards, "")
}

// newStoredFixture is newShardedFixture with every shard's record store
// under storeDir (none when empty).
func newStoredFixture(t testing.TB, shards int, storeDir string) *shardedFixture {
	t.Helper()
	fx := &shardedFixture{}
	for i := 0; i < shards; i++ {
		srv, err := NewServer(ServerOptions{
			Warmup:   runnerWarmup,
			Measure:  runnerMeasure,
			Workers:  2,
			ShardID:  fmt.Sprintf("t-shard-%d", i),
			StoreDir: storeDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		httpd := &http.Server{Handler: srv}
		go httpd.Serve(ln)
		t.Cleanup(func() { httpd.Close(); srv.Close() })
		fx.httpds = append(fx.httpds, httpd)
		fx.urls = append(fx.urls, "http://"+ln.Addr().String())
	}
	r, err := OpenShardedRunner(RunnerOptions{Shards: fx.urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	fx.runner = r
	return fx
}

// shardedReference is the LocalRunner every sharded result is held against.
func shardedReference(t testing.TB) *LocalRunner {
	t.Helper()
	local := NewLocalRunner(RunnerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 4})
	t.Cleanup(func() { local.Close() })
	return local
}

func collectBatch(t testing.TB, r Runner, specs []Spec) []Record {
	t.Helper()
	var recs []Record
	if err := r.Batch(context.Background(), specs, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatalf("%T batch: %v", r, err)
	}
	return recs
}

func asJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedRunnerEquivalence is the fleet acceptance test: batches,
// single-spec dispatch, experiments, and a registered-program sweep must be
// byte-identical to a LocalRunner across 1, 2 and 3 shards.
func TestShardedRunnerEquivalence(t *testing.T) {
	local := shardedReference(t)
	ctx := context.Background()
	specs := differentialSpecs()
	wantBatch := asJSON(t, collectBatch(t, local, specs))

	var wantText, wantCSV bytes.Buffer
	if err := local.Experiment(ctx, "fig1", ExperimentOptions{Format: "text"}, &wantText); err != nil {
		t.Fatal(err)
	}
	if err := local.Experiment(ctx, "fig1", ExperimentOptions{Format: "csv"}, &wantCSV); err != nil {
		t.Fatal(err)
	}

	// A registered-program sweep — the corpus path: same program, same
	// predictors, byte-identical records wherever each spec lands.
	prog, err := GenerateProgram(GeneratorFamilies()[0], 42)
	if err != nil {
		t.Fatal(err)
	}
	localID, err := local.RegisterProgram(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	progSpecs := func(id string) []Spec {
		return []Spec{
			{Program: id, Predictor: "lvp", Counters: FPC},
			{Program: id, Predictor: "vtage", Counters: FPC},
		}
	}
	wantProg := asJSON(t, collectBatch(t, local, progSpecs(localID)))

	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fx := newShardedFixture(t, shards)
			r := fx.runner

			if got := asJSON(t, collectBatch(t, r, specs)); !bytes.Equal(got, wantBatch) {
				t.Errorf("batch records differ from LocalRunner:\n got %s\nwant %s", got, wantBatch)
			}

			rec, err := r.Simulate(ctx, specs[3])
			if err != nil {
				t.Fatal(err)
			}
			lrec, err := local.Simulate(ctx, specs[3])
			if err != nil {
				t.Fatal(err)
			}
			if rec != lrec {
				t.Errorf("Simulate differs:\n got %+v\nwant %+v", rec, lrec)
			}

			var gotText, gotCSV bytes.Buffer
			if err := r.Experiment(ctx, "fig1", ExperimentOptions{Format: "text"}, &gotText); err != nil {
				t.Fatal(err)
			}
			if gotText.String() != wantText.String() {
				t.Errorf("fig1 text differs:\n--- sharded\n%s--- local\n%s", gotText.String(), wantText.String())
			}
			if err := r.Experiment(ctx, "fig1", ExperimentOptions{Format: "csv"}, &gotCSV); err != nil {
				t.Fatal(err)
			}
			if gotCSV.String() != wantCSV.String() {
				t.Errorf("fig1 csv differs:\n--- sharded\n%s--- local\n%s", gotCSV.String(), wantCSV.String())
			}

			id, err := r.RegisterProgram(ctx, prog)
			if err != nil {
				t.Fatal(err)
			}
			if id != localID {
				t.Fatalf("program id differs across backends: %s vs %s", id, localID)
			}
			if got := asJSON(t, collectBatch(t, r, progSpecs(id))); !bytes.Equal(got, wantProg) {
				t.Errorf("program sweep differs:\n got %s\nwant %s", got, wantProg)
			}

			li, err := local.Experiments(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := r.Experiments(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(li) != fmt.Sprint(ri) {
				t.Errorf("experiment index differs:\nlocal:   %v\nsharded: %v", li, ri)
			}
		})
	}
}

// TestShardedRunnerKillMidBatch: killing a shard while a batch is in
// flight re-routes its work to the survivors — the batch completes with
// records byte-identical to a LocalRunner, and the killed shard is marked
// down.
func TestShardedRunnerKillMidBatch(t *testing.T) {
	local := shardedReference(t)
	specs := harness.Fig4Specs()[:60]
	want := asJSON(t, collectBatch(t, local, specs))

	fx := newShardedFixture(t, 3)
	ctx := context.Background()
	var got []Record
	killed := false
	if err := fx.runner.Batch(ctx, specs, func(rec Record) error {
		got = append(got, rec)
		if !killed && len(got) == 3 {
			killed = true
			fx.kill(0) // force-close the listener and every active connection
		}
		return nil
	}); err != nil {
		t.Fatalf("batch with mid-flight shard kill: %v", err)
	}
	if !killed {
		t.Fatal("batch finished before the kill fired")
	}
	if g := asJSON(t, got); !bytes.Equal(g, want) {
		t.Errorf("records differ after mid-batch kill:\n got %s\nwant %s", g, want)
	}

	pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	fx.runner.ProbeShards(pctx)
	states := fx.runner.Shards()
	if states[0].State != "down" {
		t.Errorf("killed shard state = %q, want down (%+v)", states[0].State, states)
	}
	up := 0
	for _, st := range states[1:] {
		if st.State == "up" {
			up++
		}
	}
	if up != 2 {
		t.Errorf("survivors not up: %+v", states)
	}
}

// TestShardedRunnerSurfacesSpecErrors: fleet re-routing must not eat real
// failures — an invalid spec and an unknown experiment keep their standard
// errors.
func TestShardedRunnerSurfacesSpecErrors(t *testing.T) {
	fx := newShardedFixture(t, 2)
	ctx := context.Background()
	bad := Spec{Kernel: "art", Predictor: "lvp", MaxHist: 256}
	if _, err := fx.runner.Simulate(ctx, bad); err == nil || !strings.Contains(err.Error(), "max_hist") {
		t.Errorf("bad spec error: %v", err)
	}
	err := fx.runner.Experiment(ctx, "table1", ExperimentOptions{Format: "json"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "no structured results") {
		t.Errorf("json for text-only experiment: %v", err)
	}
	err = fx.runner.Experiment(ctx, "fig1", ExperimentOptions{Warmup: 77, Measure: 88}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "per-daemon") {
		t.Errorf("window mismatch error: %v", err)
	}
}

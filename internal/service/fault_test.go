package service_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	. "repro/internal/service"
	"repro/internal/store"
)

// TestCorruptStoreEntryUnderLiveDaemon: one entry of a populated store is
// corrupted on disk after the daemon over it has started. A batch of the
// set must still come back byte-identical to the records of the local
// session that wrote the store: the damaged entry is a load error and is
// re-simulated (the one memo miss), and everything else is a store hit.
// The re-simulation's write-behind heals the entry, so a fresh daemon over
// the same directory serves the whole set without simulating.
func TestCorruptStoreEntryUnderLiveDaemon(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	specs := []harness.Spec{
		{Kernel: "gzip", Predictor: "lvp"},
		{Kernel: "gzip", Predictor: "vtage", Counters: harness.FPC},
		{Kernel: "art", Predictor: "stride"},
	}
	st, err := store.Open(dir, harness.StoreVersion)
	if err != nil {
		t.Fatal(err)
	}
	local := harness.NewSession(harness.SessionConfig{Warmup: testWarmup, Measure: testMeasure, Store: st})
	want, err := collect(local, specs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := mustMarshal(t, want)
	set := local.MemoStats().Misses // the specs and their baselines, each stored once

	// serve starts a daemon over the store, optionally damages one entry
	// under it, and sends the set as one batch.
	serve := func(what string, corrupt bool) ServerStats {
		t.Helper()
		_, c, _ := newTestServer(t, Options{Workers: 2, StoreDir: dir})
		if corrupt {
			truncateEntry(t, dir, specs[1])
		}
		got, err := c.SimulateBatchSync(ctx, specRequests(specs))
		if err != nil {
			t.Fatalf("%s store: %v", what, err)
		}
		if gotJSON := mustMarshal(t, got); string(gotJSON) != string(wantJSON) {
			t.Errorf("%s store: records differ from the local session's:\n got %s\nwant %s", what, gotJSON, wantJSON)
		}
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Store == nil {
			t.Fatalf("%s store: statsz has no store block", what)
		}
		return stats
	}

	if s := serve("corrupted", true); s.MemoMisses != 1 || s.Store.LoadErrors != 1 || s.MemoStoreHits != set-1 {
		t.Errorf("corrupted store: memo_misses %d, load_errors %d, memo_store_hits %d; want 1, 1, %d",
			s.MemoMisses, s.Store.LoadErrors, s.MemoStoreHits, set-1)
	}
	if s := serve("healed", false); s.MemoMisses != 0 || s.Store.LoadErrors != 0 || s.MemoStoreHits != set {
		t.Errorf("healed store: memo_misses %d, load_errors %d, memo_store_hits %d; want 0, 0, %d",
			s.MemoMisses, s.Store.LoadErrors, s.MemoStoreHits, set)
	}
}

// truncateEntry cuts the stored entry of spec to half its bytes. Entries
// are found by the identity their envelope records.
func truncateEntry(t *testing.T, dir string, spec harness.Spec) {
	t.Helper()
	id := spec.Canonical().Identity()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(b, &env) == nil && env.ID == id {
			if err := os.WriteFile(p, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no stored entry for %s among %d", id, len(paths))
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/wirejson"
)

// storeSession opens a store over dir with the given version token and
// attaches it to a fresh session — the moral equivalent of a new process
// pointed at a shared -store-dir.
func storeSession(t *testing.T, dir, version string, warmup, measure uint64) *Session {
	t.Helper()
	st, err := store.Open(dir, version)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSession(warmup, measure)
	se.UseStore(st)
	return se
}

// TestStoreDifferentialByteIdentical is the PR's acceptance differential:
// records served from the persistent store must be byte-identical — in both
// JSON and CSV renderings — to records from a fresh simulation. pipeline.Stats
// is all exported integer counters, so a JSON round-trip through the store
// loses nothing; this test pins that property end to end.
func TestStoreDifferentialByteIdentical(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	warmup, measure := testWindows(5_000, 60_000)
	specs := []Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "vtage", Counters: FPC},
		{Kernel: "art", Predictor: "stride", Counters: BaselineCounters},
		{Kernel: "mcf", Predictor: "vtage", Counters: FPC, Width: 4, MaxHist: 128},
	}

	render := func(se *Session) (string, string) {
		t.Helper()
		recs, err := collect(context.Background(), se, specs)
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := WriteJSON(&j, recs); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&c, recs); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}

	cold := storeSession(t, dir, StoreVersion, warmup, measure)
	coldJSON, coldCSV := render(cold)
	if m := cold.MemoStats(); m.StoreHits != 0 || m.Misses == 0 {
		t.Fatalf("cold session over an empty store: %d store hits / %d misses, want 0 / >0", m.StoreHits, m.Misses)
	}

	warm := storeSession(t, dir, StoreVersion, warmup, measure)
	warmJSON, warmCSV := render(warm)
	m := warm.MemoStats()
	if m.Misses != 0 {
		t.Errorf("warm session simulated %d specs over a populated store, want 0", m.Misses)
	}
	if m.StoreHits == 0 {
		t.Error("warm session reported no store hits")
	}
	if warmJSON != coldJSON {
		t.Errorf("store-loaded JSON differs from fresh simulation:\n--- cold\n%s--- warm\n%s", coldJSON, warmJSON)
	}
	if warmCSV != coldCSV {
		t.Errorf("store-loaded CSV differs from fresh simulation:\n--- cold\n%s--- warm\n%s", coldCSV, warmCSV)
	}
}

// TestStoreCancelledRunNotPersisted: a cancelled simulation must leave the
// store untouched — the persistent twin of "cancellation never memoized". A
// partial result written to disk would be served as truth to every future
// process.
func TestStoreCancelledRunNotPersisted(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	se := storeSession(t, dir, StoreVersion, 50_000, 1_500_000)
	spec := Spec{Kernel: "gzip", Predictor: "none"}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := se.RunCtx(ctx, spec)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it get into the simulate loop
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunCtx never returned after cancel")
	}
	if n, err := se.Store().Len(); err != nil || n != 0 {
		t.Errorf("cancelled run persisted %d store entries (err %v), want 0", n, err)
	}
}

// TestStoreVersionBumpInvalidates: reopening the same directory under a newer
// version token must treat every old entry as a miss and re-simulate — stale
// results are never served across a simulator change.
func TestStoreVersionBumpInvalidates(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	warmup, measure := testWindows(1_000, 4_000)
	spec := Spec{Kernel: "gzip", Predictor: "lvp"}

	v1 := storeSession(t, dir, StoreVersion, warmup, measure)
	if _, err := v1.Run(spec); err != nil {
		t.Fatal(err)
	}
	if n, err := v1.Store().Len(); err != nil || n == 0 {
		t.Fatalf("first run persisted %d entries (err %v), want >0", n, err)
	}

	v2 := storeSession(t, dir, StoreVersion+"-next", warmup, measure)
	if _, err := v2.Run(spec); err != nil {
		t.Fatal(err)
	}
	m := v2.MemoStats()
	if m.StoreHits != 0 || m.Misses == 0 {
		t.Errorf("version-bumped session saw %d store hits / %d misses, want 0 / >0", m.StoreHits, m.Misses)
	}
}

// TestStoreWindowChangeInvalidates: the measurement windows are part of the
// key — a session with different warmup/measure must not be served another
// session's records.
func TestStoreWindowChangeInvalidates(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := Spec{Kernel: "gzip", Predictor: "lvp"}

	a := storeSession(t, dir, StoreVersion, 1_000, 4_000)
	ra, err := a.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	b := storeSession(t, dir, StoreVersion, 1_000, 8_000)
	rb, err := b.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m := b.MemoStats(); m.StoreHits != 0 {
		t.Errorf("different-window session got %d store hits, want 0", m.StoreHits)
	}
	if ra.Stats == rb.Stats {
		t.Error("different measurement windows produced identical stats — window keying untestable")
	}
}

// withPayload returns the store entry b with its payload swapped for raw and
// the rest of its envelope intact.
func withPayload(b []byte, raw string) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		panic(err) // b is an entry Put wrote
	}
	m["payload"] = json.RawMessage(raw)
	out, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return out
}

// TestStoreCorruptionResimulatesAndHeals: a corrupted entry must degrade to a
// miss through the session (never an error, never a wrong answer), and the
// write-behind after the re-simulation must restore the entry so the process
// after next is warm again. A zeroed payload — null or {} — is corruption
// too, never a hit of zeros.
func TestStoreCorruptionResimulatesAndHeals(t *testing.T) {
	t.Parallel()
	warmup, measure := testWindows(1_000, 4_000)
	spec := Spec{Kernel: "art", Predictor: "lvp"}
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"null-payload", func(b []byte) []byte { return withPayload(b, "null") }},
		{"empty-payload", func(b []byte) []byte { return withPayload(b, "{}") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			render := func(se *Session) string {
				t.Helper()
				recs, err := collect(context.Background(), se, []Spec{spec})
				if err != nil {
					t.Fatalf("run over the store failed: %v", err)
				}
				var b bytes.Buffer
				if err := WriteJSON(&b, recs); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}

			first := storeSession(t, dir, StoreVersion, warmup, measure)
			want := render(first)
			key, _, ok := first.storeKey(spec.Canonical())
			if !ok {
				t.Fatal("storeKey failed for a valid spec")
			}
			if err := first.Store().Tamper(key, tc.corrupt); err != nil {
				t.Fatal(err)
			}

			// Only the spec's own entry is damaged; its baseline's is served.
			second := storeSession(t, dir, StoreVersion, warmup, measure)
			if got := render(second); got != want {
				t.Errorf("record after re-simulation differs:\n--- got\n%s--- want\n%s", got, want)
			}
			m := second.MemoStats()
			if m.StoreHits != 1 || m.Misses != 1 || m.Store.LoadErrors != 1 {
				t.Errorf("corrupted entry: %d store hits / %d misses / %d load errors, want 1/1/1",
					m.StoreHits, m.Misses, m.Store.LoadErrors)
			}

			// The write-behind healed the entry: a third session is warm again.
			third := storeSession(t, dir, StoreVersion, warmup, measure)
			if got := render(third); got != want {
				t.Errorf("healed record differs:\n--- got\n%s--- want\n%s", got, want)
			}
			if m := third.MemoStats(); m.StoreHits != 2 || m.Misses != 0 {
				t.Errorf("healed entry: %d store hits / %d misses, want 2/0", m.StoreHits, m.Misses)
			}
		})
	}
}

// TestWorkloadFingerprintConcurrent: a session's first lookups of a kernel
// race (a batch's workers reach it together); every caller gets the one
// fingerprint, and an unknown name leaves no slot behind.
func TestWorkloadFingerprintConcurrent(t *testing.T) {
	t.Parallel()
	k, ok := kernels.ByName("mcf")
	if !ok {
		t.Fatal("no mcf kernel")
	}
	want := strings.TrimPrefix(ProgramID(k.Build()), progRefPrefix)
	se := NewSession(1_000, 4_000)
	fps := make([]string, 8)
	var wg sync.WaitGroup
	for i := range fps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fp, ok := se.workloadFingerprint("mcf")
			if !ok {
				t.Error("mcf has no fingerprint")
			}
			fps[i] = fp
			if _, ok := se.workloadFingerprint("bogus"); ok {
				t.Error("an unknown workload got a fingerprint")
			}
		}(i)
	}
	wg.Wait()
	for i, fp := range fps {
		if fp != want {
			t.Errorf("caller %d got fingerprint %q, want %q", i, fp, want)
		}
	}
	se.mu.Lock()
	n := len(se.fps)
	se.mu.Unlock()
	if n != 1 {
		t.Errorf("%d fingerprint slots after looking up one kernel and one unknown name, want 1", n)
	}
}

// distinctStats fills every pipeline.Stats field with its own value at the
// edge of its range, so a codec that drops, swaps or truncates a field
// cannot round-trip it.
func distinctStats(tb testing.TB) pipeline.Stats {
	var st pipeline.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(math.MinInt64 + int64(i))
		case reflect.Uint64:
			f.SetUint(math.MaxUint64 - uint64(i))
		default:
			tb.Fatalf("pipeline.Stats.%s is a %s; parseStats reads int64 and uint64 fields", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

// TestStoreRoundTripsEveryStatsField: a result Put writes comes back from
// the one-pass read field for field. A field added to pipeline.Stats
// without parseStats fails here instead of turning every store lookup into
// a silent miss.
func TestStoreRoundTripsEveryStatsField(t *testing.T) {
	t.Parallel()
	st, err := store.Open(t.TempDir(), StoreVersion)
	if err != nil {
		t.Fatal(err)
	}
	want := distinctStats(t)
	key := store.KeyOf("every-field")
	if err := st.Put(key, "every-field", want); err != nil {
		t.Fatal(err)
	}
	// The same entry with its members reordered and whitespace added is
	// the same entry.
	var reordered map[string]json.RawMessage
	for _, tamper := range []func([]byte) []byte{
		func(b []byte) []byte { return b },
		func(b []byte) []byte {
			if err := json.Unmarshal(b, &reordered); err != nil {
				t.Fatal(err)
			}
			out, err := json.MarshalIndent(reordered, " ", "\t")
			if err != nil {
				t.Fatal(err)
			}
			return out
		},
	} {
		if err := st.Tamper(key, tamper); err != nil {
			t.Fatal(err)
		}
		var got pipeline.Stats
		if !st.Get(key, "every-field", func(s *wirejson.Scanner) bool { return parseStats(s, &got) }) {
			t.Fatal("the one-pass read rejected an entry Put wrote")
		}
		if got != want {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// maxStoreLoadAllocs bounds the heap allocations of one store hit once the
// workload's fingerprint is known. A hit makes 19, and 21 under -race, where
// sync.Pool drops items; the bound leaves room for both.
const maxStoreLoadAllocs = 24

// TestStoreLoadAllocs gates a warm sweep's steady state: a store hit with
// the fingerprint already computed. Not parallel: AllocsPerRun counts the
// whole process's allocations.
func TestStoreLoadAllocs(t *testing.T) {
	warmup, measure := testWindows(1_000, 4_000)
	se := storeSession(t, t.TempDir(), StoreVersion, warmup, measure)
	spec := Spec{Kernel: "mcf", Predictor: "lvp"}.Canonical()
	if _, err := se.Run(spec); err != nil {
		t.Fatal(err)
	}
	st := se.Store()
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := se.storeLoad(st, spec); !ok {
			t.Fatal("storeLoad missed the entry Run persisted")
		}
	})
	t.Logf("%.0f allocations per store hit", allocs)
	if allocs > maxStoreLoadAllocs {
		t.Errorf("a warm store hit allocates %.0f times, want at most %d", allocs, maxStoreLoadAllocs)
	}
}

// strictStats is FuzzStoreEnvelope's oracle: encoding/json's strict decode of
// a store entry — envelope checked, unknown payload fields rejected — plus
// the rule that every Stats field is present.
func strictStats(data []byte, key store.Key, id string) (pipeline.Stats, error) {
	var st pipeline.Stats
	var e struct {
		Version string          `json:"version"`
		Key     string          `json:"key"`
		ID      string          `json:"id"`
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return st, err
	}
	if e.Version != StoreVersion || e.Key != key.String() || e.ID != id {
		return st, fmt.Errorf("envelope %q/%q/%q does not match", e.Version, e.Key, e.ID)
	}
	dec := json.NewDecoder(bytes.NewReader(e.Payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return st, err
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(e.Payload, &members); err != nil {
		return st, err
	}
	typ := reflect.TypeOf(st)
	if len(members) != typ.NumField() {
		return st, fmt.Errorf("payload has %d members, Stats %d fields", len(members), typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := members[typ.Field(i).Name]; !ok {
			return st, fmt.Errorf("payload lacks %s", typ.Field(i).Name)
		}
	}
	return st, nil
}

// FuzzStoreEnvelope writes arbitrary bytes as a store entry and loads it the
// way a session does. Whatever the bytes, the load must either miss or give
// exactly the Stats encoding/json's strict decode gives, with every field
// present — and never panic. Locally:
//
//	go test -run='^$' -fuzz=FuzzStoreEnvelope -fuzztime=30s ./internal/harness
func FuzzStoreEnvelope(f *testing.F) {
	st, err := store.Open(f.TempDir(), StoreVersion)
	if err != nil {
		f.Fatal(err)
	}
	const id = "fuzz/entry"
	key := store.KeyOf(id)
	if err := st.Put(key, id, distinctStats(f)); err != nil {
		f.Fatal(err)
	}
	var entry []byte
	if err := st.Tamper(key, func(b []byte) []byte { entry = b; return b }); err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	for n := 0; n < len(entry); n += 29 {
		f.Add(entry[:n])
	}
	f.Add(withPayload(entry, "null"))
	f.Add(withPayload(entry, "{}"))
	var members map[string]json.RawMessage
	if err := json.Unmarshal(entry, &members); err != nil {
		f.Fatal(err)
	}
	reordered, err := json.MarshalIndent(members, " ", "\t") // keys sorted: id, key, payload, version
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reordered)

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := st.Tamper(key, func([]byte) []byte { return data }); err != nil {
			t.Fatal(err)
		}
		var got pipeline.Stats
		if !st.Get(key, id, func(s *wirejson.Scanner) bool { return parseStats(s, &got) }) {
			return
		}
		want, err := strictStats(data, key, id)
		if err != nil {
			t.Fatalf("served an entry encoding/json's strict decode rejects (%v):\n%s", err, data)
		}
		if got != want {
			t.Fatalf("served %+v, encoding/json decodes %+v:\n%s", got, want, data)
		}
	})
}

// TestStoreFig4SecondProcessZeroMisses is the PR's warm-start acceptance
// criterion at full batch scale: a first session runs the complete Fig. 4
// matrix (baselines included) into a store; a second cold session over the
// same directory must complete the identical batch with zero simulation
// misses and records identical to the first pass.
func TestStoreFig4SecondProcessZeroMisses(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	warmup, measure := testWindows(1_000, 4_000)
	specs := Fig4Specs()

	first := storeSession(t, dir, StoreVersion, warmup, measure)
	want, err := collect(context.Background(), first, specs)
	if err != nil {
		t.Fatal(err)
	}

	second := storeSession(t, dir, StoreVersion, warmup, measure)
	got, err := collect(context.Background(), second, specs)
	if err != nil {
		t.Fatal(err)
	}
	m := second.MemoStats()
	if m.Misses != 0 {
		t.Errorf("second process over a populated store simulated %d specs, want 0 (store hits %d)", m.Misses, m.StoreHits)
	}
	if m.StoreHits == 0 {
		t.Error("second process reported no store hits")
	}
	if len(got) != len(want) {
		t.Fatalf("record counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("record %d differs between cold and warm pass:\n%+v\n%+v", i, want[i], got[i])
		}
	}
}

// TestStoreConcurrentSessionsRaceSameSpecs is the cross-session sharing
// guarantee a fleet over one -store-dir depends on (DESIGN.md §12): two
// sessions — the moral equivalent of two shard processes — racing the
// identical spec set over one directory degrade to at-most-duplicate
// simulation, never corruption. Every record from both sessions must be
// byte-identical to an isolated reference, combined misses are bounded by
// one full pass per session, and a third session afterwards is fully warm
// with no load errors (nothing on disk was torn by the race).
func TestStoreConcurrentSessionsRaceSameSpecs(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	warmup, measure := testWindows(1_000, 4_000)
	specs := Fig4Specs()[:40]

	ref := NewSession(warmup, measure)
	want, err := collect(context.Background(), ref, specs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := new(bytes.Buffer)
	if err := WriteJSON(wantJSON, want); err != nil {
		t.Fatal(err)
	}

	a := storeSession(t, dir, StoreVersion, warmup, measure)
	b := storeSession(t, dir, StoreVersion, warmup, measure)
	type result struct {
		recs []Record
		err  error
	}
	results := make(chan result, 2)
	for _, se := range []*Session{a, b} {
		go func(se *Session) {
			recs, err := collect(context.Background(), se, specs)
			results <- result{recs, err}
		}(se)
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		got := new(bytes.Buffer)
		if err := WriteJSON(got, r.recs); err != nil {
			t.Fatal(err)
		}
		if got.String() != wantJSON.String() {
			t.Errorf("racing session's records differ from the isolated reference:\n--- got\n%s--- want\n%s",
				got.String(), wantJSON.String())
		}
	}

	// At-most-duplicate: each session simulates a spec at most once (its own
	// memo guarantees that), so the combined misses can never exceed two
	// full passes — and the race must not have produced load errors.
	ma, mb := a.MemoStats(), b.MemoStats()
	tasks := uint64(len(ref.sortedSpecs())) // distinct specs incl. baselines
	if total := ma.Misses + mb.Misses; total > 2*tasks {
		t.Errorf("racing sessions simulated %d tasks over %d distinct specs — more than duplicate work", total, tasks)
	}
	if ma.Misses+mb.Misses < tasks {
		t.Errorf("racing sessions simulated only %d of %d distinct specs", ma.Misses+mb.Misses, tasks)
	}
	for _, m := range []MemoStats{ma, mb} {
		if m.Store.LoadErrors != 0 {
			t.Errorf("race produced %d store load errors — torn reads", m.Store.LoadErrors)
		}
	}

	// A fresh third session over the raced directory is fully warm: nothing
	// was corrupted, everything was persisted.
	third := storeSession(t, dir, StoreVersion, warmup, measure)
	got, err := collect(context.Background(), third, specs)
	if err != nil {
		t.Fatal(err)
	}
	m := third.MemoStats()
	if m.Misses != 0 {
		t.Errorf("third session simulated %d specs over the raced store, want 0", m.Misses)
	}
	if m.Store.LoadErrors != 0 {
		t.Errorf("third session hit %d load errors — the race tore an entry", m.Store.LoadErrors)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("record %d from the raced store differs from the reference:\n%+v\n%+v", i, want[i], got[i])
		}
	}
}

package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/isa"
)

// goldenRecords are fixed, hand-written values: the golden files pin the
// serialization format (field names, ordering, float rendering), not
// simulator output.
func goldenRecords() []Record {
	return []Record{
		{
			Kernel: "art", Predictor: "vtage", Counters: "custom", Recovery: "squash",
			Width: 4, LoadsOnly: true, MaxHist: 256, FPCVector: "0,2,2,2,2,3,3",
			IPC: 1.25, Speedup: 1.5, Coverage: 0.4, Accuracy: 0.9975,
			Committed: 250000, Cycles: 200000,
			SquashValue: 12, SquashBranch: 34, SquashMemOrder: 5, ReissuedUops: 0,
			BranchMPKI: 1.36, B2BFraction: 0.034,
		},
		{
			Kernel: "gzip", Predictor: "none", Counters: "baseline", Recovery: "reissue",
			IPC: 2, Speedup: 1, Coverage: 0, Accuracy: 1,
			Committed: 250000, Cycles: 125000,
			SquashValue: 0, SquashBranch: 7, SquashMemOrder: 0, ReissuedUops: 3,
			BranchMPKI: 0.028, B2BFraction: 0,
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, goldenRecords()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "records.golden.json", buf.Bytes())
}

func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, goldenRecords()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "records.golden.csv", buf.Bytes())
}

// failingWriter accepts `allow` bytes and then fails every write — a stand-in
// for a sink (pipe, socket, full disk) dying mid-stream.
type failingWriter struct {
	allow   int
	written int
}

var errSinkClosed = errors.New("sink closed")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.allow {
		n := 0
		if w.allow > w.written {
			n = w.allow - w.written
		}
		w.written += n
		return n, errSinkClosed
	}
	w.written += len(p)
	return len(p), nil
}

// manyRecords is big enough to overflow every internal buffer on the emit
// path (csv.Writer fronts its sink with a 4KiB bufio.Writer, so small
// outputs only surface write errors at Flush).
func manyRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = goldenRecords()[i%2]
		recs[i].Committed = uint64(i)
	}
	return recs
}

// TestWriteJSONWriterError: a writer failure must surface as WriteJSON's
// error, whether the sink dies immediately or mid-stream.
func TestWriteJSONWriterError(t *testing.T) {
	for _, allow := range []int{0, 512} {
		w := &failingWriter{allow: allow}
		err := WriteJSON(w, manyRecords(64))
		if !errors.Is(err, errSinkClosed) {
			t.Errorf("allow=%d: WriteJSON returned %v, want the sink error", allow, err)
		}
	}
}

// TestWriteCSVWriterError covers the three places a dying sink can surface
// in WriteCSV: the header write, a row write mid-stream, and the final
// flush.
func TestWriteCSVWriterError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		allow int
		recs  []Record
	}{
		{"immediately", 0, manyRecords(64)},
		{"mid-stream", 8 << 10, manyRecords(256)},
		{"at flush", 16, manyRecords(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &failingWriter{allow: tc.allow}
			err := WriteCSV(w, tc.recs)
			if !errors.Is(err, errSinkClosed) {
				t.Errorf("WriteCSV returned %v, want the sink error", err)
			}
		})
	}
	// And the success path really does flush everything it was given.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, manyRecords(256)); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 257 {
		t.Errorf("got %d CSV lines, want 257", lines)
	}
}

// TestRecordFieldNamesStable ties the JSON keys to the CSV header: both are
// the public contract of the structured-results layer.
func TestRecordFieldNamesStable(t *testing.T) {
	raw, err := json.Marshal(goldenRecords()[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != len(csvHeader) {
		t.Errorf("Record marshals %d JSON fields, CSV header has %d", len(m), len(csvHeader))
	}
	for _, key := range csvHeader {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON output missing field %q present in CSV header", key)
		}
	}
}

// collect runs se.Records over specs and gathers the records in spec order.
func collect(ctx context.Context, se *Session, specs []Spec) ([]Record, error) {
	var recs []Record
	_, err := se.Records(ctx, specs, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	return recs, err
}

// TestRecordCtx: a one-spec Records call under a context, the form
// LocalRunner.Simulate makes, must agree with the same spec's record from a
// batch call, memoize (a repeat call starts no new simulations) and fail
// cleanly on a dead context.
func TestRecordCtx(t *testing.T) {
	se := NewSession(testWindows(1_000, 4_000))
	spec := Spec{Kernel: "art", Predictor: "lvp", Counters: FPC}
	ctx := context.Background()
	single, err := collect(ctx, se, []Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := collect(ctx, NewSession(testWindows(1_000, 4_000)), []Spec{{Kernel: "gzip", Predictor: "none"}, spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || len(batch) != 2 || single[0] != batch[1] {
		t.Errorf("one-spec Records differs from the batch:\nsingle: %+v\nbatch:  %+v", single, batch)
	}
	misses := se.MemoStats().Misses
	again, err := collect(ctx, se, []Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if after := se.MemoStats().Misses; after != misses {
		t.Errorf("repeat Records started %d new simulations", after-misses)
	}
	if !slices.Equal(again, single) {
		t.Errorf("repeat Records differs:\nfirst:  %+v\nrepeat: %+v", single, again)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := collect(dead, se, []Spec{{Kernel: "gzip", Predictor: "vtage"}}); !IsContextErr(err) {
		t.Errorf("cancelled Records returned %v, want a context error", err)
	}
}

// TestSessionRecords runs a tiny real batch through the Record layer: the
// speedup divides by the baseline's IPC, and an unknown kernel fails the
// call.
func TestSessionRecords(t *testing.T) {
	se := NewSession(testWindows(1_000, 4_000))
	specs := []Spec{
		{Kernel: "art", Predictor: "none"},
		{Kernel: "art", Predictor: "lvp", Counters: FPC},
	}
	ctx := context.Background()
	recs, err := collect(ctx, se, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Predictor != "none" || recs[0].Speedup != 1 {
		t.Errorf("baseline record should have speedup 1: %+v", recs[0])
	}
	if recs[1].Kernel != "art" || recs[1].Predictor != "lvp" || recs[1].Counters != "FPC" {
		t.Errorf("record spec fields wrong: %+v", recs[1])
	}
	if recs[1].IPC <= 0 || recs[1].Speedup <= 0 {
		t.Errorf("degenerate record: %+v", recs[1])
	}
	if want := recs[1].IPC / recs[0].IPC; recs[1].Speedup != want {
		t.Errorf("speedup %v, want the IPC ratio %v", recs[1].Speedup, want)
	}
	if _, err := collect(ctx, se, []Spec{{Kernel: "nope", Predictor: "none"}}); err == nil {
		t.Error("unknown kernel accepted by Records")
	}
}

// TestRecordsRunsEachTaskOnce pins the planner: a cold call simulates every
// distinct spec and baseline exactly once, with no memo hit and no join,
// and an identical warm call answers every task from the memo, one hit
// each, without taking a slot.
func TestRecordsRunsEachTaskOnce(t *testing.T) {
	t.Parallel()
	cfg := testWindows(1_000, 4_000)
	cfg.Workers = 2
	se := NewSession(cfg)
	var progs []string
	for _, family := range []string{"branchy", "memory"} {
		p, err := isa.Generate(family, 1)
		if err != nil {
			t.Fatal(err)
		}
		id, err := se.RegisterProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, id)
	}
	specs := []Spec{
		{Kernel: "art", Predictor: "none"},
		{Kernel: "art", Predictor: "lvp", Counters: FPC},
		{Kernel: "art", Predictor: "vtage", Counters: FPC},
		{Program: progs[0], Predictor: "stride", Counters: FPC},
		{Program: progs[1], Predictor: "vtage", Counters: FPC},
		{Kernel: "art", Predictor: "lvp", Counters: FPC},
	}
	const tasks = 7 // art's baseline, lvp and vtage; each program's spec and baseline

	ctx := context.Background()
	cold, err := collect(ctx, se, specs)
	if err != nil {
		t.Fatal(err)
	}
	if m := se.MemoStats(); m.Misses != tasks || m.Hits != 0 {
		t.Errorf("cold call: %d misses / %d hits, want %d / 0: one lookup per distinct task", m.Misses, m.Hits, tasks)
	}
	if j := se.SlotStats().Joined; j != 0 {
		t.Errorf("cold call joined %d runs in flight, want 0: its tasks are distinct", j)
	}
	if len(cold) != len(specs) || cold[5] != cold[1] {
		t.Fatalf("got %d records, want %d with the duplicate spec's equal to its first", len(cold), len(specs))
	}

	// Hold every slot: a warm lookup that took one would wait until ctx ends.
	slots := se.slots
	for range cap(slots) {
		slots <- struct{}{}
	}
	defer func() {
		for range cap(slots) {
			<-slots
		}
	}()
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	warm, err := collect(ctx, se, specs)
	if err != nil {
		t.Fatalf("warm call with every slot held: %v", err)
	}
	if m := se.MemoStats(); m.Misses != tasks || m.Hits != tasks {
		t.Errorf("warm call: %d misses / %d hits, want %d / %d: one hit per task", m.Misses, m.Hits, tasks, tasks)
	}
	if !slices.Equal(warm, cold) {
		t.Error("warm records differ from cold ones")
	}
}

// TestRecordsStreamsInSpecOrder pins delivery: fn receives a warm spec's
// record while a later cold spec still holds a slot, and an fn error ends
// the call at once with (-1, err), the cold run cancelled and no slot
// held.
func TestRecordsStreamsInSpecOrder(t *testing.T) {
	t.Parallel()
	se := NewSession(SessionConfig{Warmup: longWarmup, Measure: longMeasure, Workers: 2})
	warm := Spec{Kernel: "art", Predictor: "none"}
	cold := Spec{Kernel: "gzip", Predictor: "none"}
	if _, err := se.RunCtx(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	var got []Record
	failed, err := se.Records(context.Background(), []Spec{warm, cold}, func(r Record) error {
		got = append(got, r)
		waitFor(t, "the cold spec holding a slot", func() bool { return se.SlotStats().Busy == 1 })
		return stop
	})
	if failed != -1 || !errors.Is(err, stop) {
		t.Fatalf("Records returned (%d, %v), want (-1, %v)", failed, err, stop)
	}
	if len(got) != 1 || got[0].Kernel != "art" {
		t.Errorf("fn received %+v, want only the warm art record", got)
	}
	if busy := se.SlotStats().Busy; busy != 0 {
		t.Errorf("%d slots still held after Records returned: a walker outlived the call", busy)
	}
	if _, _, ok := se.peek(cold); ok {
		t.Error("the abandoned cold run was memoized")
	}
}

// TestRecordsFirstFailureInSpecOrder: a spec naming an unregistered program
// fails the call at its own index with the curable unknown-workload error,
// once the specs before it have been delivered.
func TestRecordsFirstFailureInSpecOrder(t *testing.T) {
	t.Parallel()
	se := NewSession(testWindows(1_000, 4_000))
	p, err := isa.Generate("mixed", 7)
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Kernel: "art", Predictor: "lvp", Counters: FPC},
		{Program: ProgramID(p), Predictor: "lvp", Counters: FPC},
		{Kernel: "art", Predictor: "none"},
	}
	var got []Record
	failed, err := se.Records(context.Background(), specs, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if failed != 1 || !IsUnknownWorkload(err) {
		t.Fatalf("Records returned (%d, %v), want (1, an unknown-workload error)", failed, err)
	}
	if len(got) != 1 || got[0].Predictor != "lvp" {
		t.Errorf("fn received %+v, want only spec 0's record", got)
	}
}

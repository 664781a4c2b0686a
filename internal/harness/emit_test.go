package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
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

// TestRecordCtx: the single-spec record path must agree with the batch
// Records layer, cancel cleanly, and memoize — a repeat call starts no new
// simulations.
func TestRecordCtx(t *testing.T) {
	se := NewSession(testWindows(1_000, 4_000))
	spec := Spec{Kernel: "art", Predictor: "lvp", Counters: FPC}
	ctx := context.Background()
	rec, err := se.RecordCtx(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := se.Records([]Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if rec != recs[0] {
		t.Errorf("RecordCtx differs from Records:\nsingle: %+v\nbatch:  %+v", rec, recs[0])
	}
	misses := se.MemoStats().Misses
	if _, err := se.RecordCtx(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if after := se.MemoStats().Misses; after != misses {
		t.Errorf("repeat RecordCtx started %d new simulations", after-misses)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := se.RecordCtx(dead, Spec{Kernel: "gzip", Predictor: "vtage"}); !IsContextErr(err) {
		t.Errorf("cancelled RecordCtx returned %v, want a context error", err)
	}
}

// TestSessionRecords runs a tiny real batch through the Record layer.
func TestSessionRecords(t *testing.T) {
	se := NewSession(testWindows(1_000, 4_000))
	specs := []Spec{
		{Kernel: "art", Predictor: "none"},
		{Kernel: "art", Predictor: "lvp", Counters: FPC},
	}
	recs, err := se.Records(specs)
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
	if _, err := se.Records([]Spec{{Kernel: "nope", Predictor: "none"}}); err == nil {
		t.Error("unknown kernel accepted by Records")
	}
}

package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/wirejson"
)

// reflectRecord is Record without its methods: encoding/json falls back to
// reflection for it, giving the byte-compatibility oracle the hand-rolled
// codec is tested against.
type reflectRecord Record

func wireTestRecords() []Record {
	return []Record{
		{},
		{
			Kernel: "art", Predictor: "vtage", Counters: "fpc", Recovery: "squash",
			Width: 8, MaxHist: 64, IPC: 2.345678901234, Speedup: 1.0 / 3.0,
			Coverage: 0.425, Accuracy: 0.9987654321, Committed: 80_000,
			Cycles: 34117, SquashValue: 12, SquashBranch: 345, SquashMemOrder: 6,
			ReissuedUops: 789, BranchMPKI: 16.25, B2BFraction: 9.999e-7,
		},
		{
			Kernel: "prog:4b3f00ff", Predictor: "lvp", Counters: "custom",
			Recovery: "reissue", Width: 4, LoadsOnly: true, MaxHist: 128,
			FPCVector: "0,2,2,2,2,3,3", IPC: 1e21, Speedup: 5e-324,
			Coverage: 1, Accuracy: 0, Committed: 18446744073709551615,
			Cycles: -42, BranchMPKI: 1e-7,
		},
	}
}

// TestRecordMarshalByteCompatible pins the wire fast path's core contract:
// the hand-rolled marshaler and encoding/json's reflection encoder emit
// identical bytes, compact and indented (WriteJSON re-indents marshaler
// output through the stdlib, so indented equality follows — but pin it
// anyway).
func TestRecordMarshalByteCompatible(t *testing.T) {
	for _, rec := range wireTestRecords() {
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(reflectRecord(rec))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("hand-rolled marshal differs from reflection:\n got %s\nwant %s", got, want)
		}
	}
}

// TestRecordUnmarshalEquivalent checks the decode side: fast-path input,
// whitespace-padded input, reordered keys, unknown fields and escaped
// strings must all decode exactly as the reflection decoder would.
func TestRecordUnmarshalEquivalent(t *testing.T) {
	var inputs [][]byte
	for _, rec := range wireTestRecords() {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, b)
	}
	inputs = append(inputs,
		[]byte(" {\n \"ipc\": 1.5 ,\t\"kernel\": \"gzip\", \"cycles\": -7 } "),
		[]byte(`{"kernel":"g","future_field":123,"ipc":2}`), // unknown key → lenient fallback
		[]byte(`{"kernel":"esc\"aped","ipc":1}`),            // escape → fallback
		[]byte(`{}`),
	)
	for _, in := range inputs {
		var got Record
		if err := json.Unmarshal(in, &got); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		var want reflectRecord
		if err := json.Unmarshal(in, &want); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if !reflect.DeepEqual(got, Record(want)) {
			t.Errorf("%s:\n got %+v\nwant %+v", in, got, want)
		}
	}
	if err := json.Unmarshal([]byte(`{"kernel":}`), &Record{}); err == nil {
		t.Error("malformed record must still error through the fallback")
	}
}

// FuzzParseRecord checks the record fast path against encoding/json: whenever
// ParseRecord accepts the whole input, encoding/json must accept the same
// bytes and decode the same Record. Locally:
//
//	go test -run='^$' -fuzz=FuzzParseRecord -fuzztime=30s ./internal/harness
func FuzzParseRecord(f *testing.F) {
	for _, rec := range wireTestRecords() {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(" {\n \"ipc\": 1.5 ,\t\"kernel\": \"gzip\", \"cycles\": -7 } "))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := wirejson.NewScanner(data)
		got, ok := ParseRecord(s)
		if !ok || !s.End() {
			return
		}
		var want reflectRecord
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("fast path accepted %q; encoding/json rejects it: %v", data, err)
		}
		if !reflect.DeepEqual(got, Record(want)) {
			t.Fatalf("%q:\nfast path     %+v\nencoding/json %+v", data, got, want)
		}
	})
}

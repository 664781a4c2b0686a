package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/wirejson"
)

func wireTestSpecs() []harness.Spec {
	return []harness.Spec{
		{Kernel: "art", Predictor: "vtage"},
		{Kernel: "gzip", Predictor: "lvp", Counters: harness.FPC, Recovery: pipeline.SelectiveReissue,
			Width: 4, LoadsOnly: true, MaxHist: 128, FPCVec: "0,2,2,2,2,3,3"},
		{Program: "prog:4b3f", Predictor: "stride"},
		{Kernel: "art", Predictor: "vtage", Width: math.MinInt, MaxHist: math.MaxInt},
		{},
	}
}

// TestSpecRequestMarshalByteCompatible pins the hand-rolled spec appender
// against the reflection encoding of the tagged harness.Spec: field order,
// omitempty layout and the text spellings of Counters and Recovery.
func TestSpecRequestMarshalByteCompatible(t *testing.T) {
	for _, sp := range wireTestSpecs() {
		got := appendSpec(nil, sp)
		want, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("hand-rolled marshal differs from reflection:\n got %s\nwant %s", got, want)
		}
	}
}

// TestSpecRequestUnmarshalStrict checks the frame codec's decode: the test
// specs round-trip; every accepted counters and recovery spelling is read
// on the fast path, and escaped strings through the fallback; unknown
// fields and unknown spellings still fail (with the reflection decode's
// error, so the API's strictness predates the fast path and survives it);
// and a frame is one value with nothing after it.
func TestSpecRequestUnmarshalStrict(t *testing.T) {
	decode := func(specs string) ([]harness.Spec, error) {
		var r BatchSyncRequest
		err := r.UnmarshalJSON([]byte(`{"specs":[` + specs + `]}`))
		return r.Specs, err
	}

	b, err := BatchSyncRequest{Specs: wireTestSpecs()}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back BatchSyncRequest
	if err := back.UnmarshalJSON(b); err != nil || !reflect.DeepEqual(back.Specs, wireTestSpecs()) {
		t.Errorf("%s: got %+v (%v), want %+v", b, back.Specs, err, wireTestSpecs())
	}

	fpc := harness.Spec{Kernel: "art", Predictor: "lvp", Counters: harness.FPC}
	reissue := harness.Spec{Kernel: "art", Predictor: "lvp", Recovery: pipeline.SelectiveReissue}
	plain := harness.Spec{Kernel: "art", Predictor: "lvp"}
	for _, tc := range []struct {
		spec string
		want harness.Spec
		fast bool // the scanner reads it without the fallback
	}{
		{`{"kernel":"art","predictor":"lvp","counters":"fpc"}`, fpc, true},
		{`{"kernel":"art","predictor":"lvp","counters":"FPC"}`, fpc, true},
		{`{"kernel":"art","predictor":"lvp","counters":"baseline","recovery":"squash"}`, plain, true},
		{`{"kernel":"art","predictor":"lvp","counters":"","recovery":""}`, plain, true},
		{`{"kernel":"art","predictor":"lvp","recovery":"reissue"}`, reissue, true},
		{`{"kernel":"art","predictor":"lvp"}`, plain, true},
		{`{"kernel":"art","predictor":"lvp","counters":"\u0066pc"}`, fpc, false},
		{`{"kernel":"\u0061rt","predictor":"lvp"}`, plain, false},
	} {
		got, err := decode(tc.spec)
		if err != nil || len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: got %+v (%v), want %+v", tc.spec, got, err, tc.want)
		}
		if _, ok := parseSpec(wirejson.NewScanner([]byte(tc.spec))); ok != tc.fast {
			t.Errorf("%s: fast path read it = %t, want %t", tc.spec, ok, tc.fast)
		}
	}

	for _, tc := range []struct{ spec, err string }{
		{`{"kernel":"art","predictor":"lvp","bogus":1}`, `json: unknown field "bogus"`},
		{`{"kernel":"art","predictor":"lvp","counters":"nope"}`, `unknown counters "nope" (have baseline, fpc)`},
		{`{"kernel":"art","predictor":"lvp","recovery":"nope"}`, `unknown recovery "nope" (have squash, reissue)`},
	} {
		if _, err := decode(tc.spec); err == nil || err.Error() != tc.err {
			t.Errorf("%s: got error %v, want %q", tc.spec, err, tc.err)
		}
	}

	// Called directly (as decodeBody calls it), the codec takes one value
	// and nothing after it — on the fast path and the fallback alike.
	for _, body := range []string{
		`{"specs":[{"kernel":"gzip","predictor":"none"}]}{"specs":[]}`,
		`{"specs":[{"kernel":"gzip","predictor":"none"}]} trailing-garbage`,
		`{"specs":[{"kernel":"gz\u0069p","predictor":"none"}]} {}`,
	} {
		if err := new(BatchSyncRequest).UnmarshalJSON([]byte(body)); err == nil {
			t.Errorf("%s: trailing data accepted", body)
		}
	}
}

// specSink keeps the allocation gate's slices on the heap, where the
// decoder's land.
var specSink []harness.Spec

// TestSpecFrameDecodeAllocs is the allocation gate for the daemon's frame
// decoder: the fig4 frame decodes with at most two allocations per spec,
// its kernel and predictor strings, plus the spec slice's growth. Counters
// and recovery are read in place by their UnmarshalText.
func TestSpecFrameDecodeAllocs(t *testing.T) {
	specs := harness.DedupSpecs(harness.Fig4Specs())
	body, err := BatchSyncRequest{Specs: specs}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var r BatchSyncRequest
	if err := r.UnmarshalJSON(body); err != nil || !reflect.DeepEqual(r.Specs, specs) {
		t.Fatalf("fig4 frame does not round-trip: %v", err)
	}
	growth := testing.AllocsPerRun(10, func() {
		grown := []harness.Spec{}
		for range specs {
			grown = append(grown, harness.Spec{})
		}
		specSink = grown
	})
	decode := testing.AllocsPerRun(10, func() {
		var r BatchSyncRequest
		if err := r.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
		specSink = r.Specs
	})
	if limit := 2*float64(len(specs)) + growth; decode > limit {
		t.Errorf("decoding the %d-spec fig4 frame (%d bytes) allocates %.0f times, want at most %.0f (2 per spec + %.0f for the slice's growth)",
			len(specs), len(body), decode, limit, growth)
	} else {
		t.Logf("fig4 frame: %d specs, %d bytes, %.0f allocations (%.0f of them the slice's growth)", len(specs), len(body), decode, growth)
	}
}

// reflectFrame is BatchSyncRequest without its methods — the encoding/json
// oracle for the frame codec. harness.Spec has no JSON methods, so its
// reflection encoding is the wire form.
type reflectFrame struct {
	Specs []harness.Spec `json:"specs"`
}

// FuzzSpecFrame pins the spec-frame codec, which every remote Runner call
// rides, against encoding/json: BatchSyncRequest.UnmarshalJSON accepts
// exactly the bytes a strict encoding/json decode accepts (unknown fields
// and unknown spellings rejected, one value and nothing but whitespace
// after it) and yields the same value; whatever it accepts, MarshalJSON
// re-encodes byte for byte as the reflection encoder does, and the bytes
// decode back to the same value.
func FuzzSpecFrame(f *testing.F) {
	for _, specs := range [][]harness.Spec{wireTestSpecs(), nil, {}} {
		b, err := BatchSyncRequest{Specs: specs}.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"specs":[{"kernel":"art","predictor":"lvp","counters":"FPC","recovery":""}]}`))
	f.Add([]byte(`{"specs":[{"kernel":"art","predictor":"lvp","counters":"nope"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got BatchSyncRequest
		gotErr := got.UnmarshalJSON(data)

		var oracle reflectFrame
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&oracle)
		if wantErr == nil && !json.Valid(data) {
			wantErr = errors.New("data after the top-level value")
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: codec error %v, encoding/json error %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !reflect.DeepEqual(got.Specs, oracle.Specs) {
			t.Fatalf("%q:\ncodec         %#v\nencoding/json %#v", data, got.Specs, oracle.Specs)
		}

		out, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref, _ := json.Marshal(oracle); !bytes.Equal(out, ref) {
			t.Fatalf("%q re-encodes as\n%s\nreflection encodes\n%s", data, out, ref)
		}
		var back BatchSyncRequest
		if err := back.UnmarshalJSON(out); err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("%s does not round-trip: %v\n got %#v\nwant %#v", out, err, back, got)
		}
	})
}

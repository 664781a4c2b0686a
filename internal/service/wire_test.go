package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// reflectSpecRequest is SpecRequest without its methods — the reflection
// oracle for the hand-rolled codec.
type reflectSpecRequest SpecRequest

func wireTestSpecRequests() []SpecRequest {
	return []SpecRequest{
		{Kernel: "art", Predictor: "vtage"},
		{Kernel: "gzip", Predictor: "lvp", Counters: "fpc", Recovery: "reissue",
			Width: 4, LoadsOnly: true, MaxHist: 128, FPCVector: "0,2,2,2,2,3,3"},
		{Program: "prog:4b3f", Predictor: "stride", Counters: "baseline"},
		{Kernel: "art", Predictor: "vtage", Width: math.MinInt, MaxHist: math.MaxInt},
		{},
	}
}

// TestSpecRequestMarshalByteCompatible pins the hand-rolled marshaler
// against the reflection encoder, omitempty layout included.
func TestSpecRequestMarshalByteCompatible(t *testing.T) {
	for _, req := range wireTestSpecRequests() {
		got, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(reflectSpecRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("hand-rolled marshal differs from reflection:\n got %s\nwant %s", got, want)
		}
	}
}

// TestSpecRequestUnmarshalStrict checks decode equivalence on the fast
// path and both fallback behaviors: escaped strings decode correctly, and
// unknown fields still fail — the API's strictness predates the fast path
// and must survive it.
func TestSpecRequestUnmarshalStrict(t *testing.T) {
	for _, req := range wireTestSpecRequests() {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got SpecRequest
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%s: got %+v, want %+v", b, got, req)
		}
	}

	var esc SpecRequest
	if err := json.Unmarshal([]byte(`{"kernel":"art","predictor":"lvp"}`), &esc); err != nil {
		t.Fatal(err)
	}
	if esc.Kernel != "art" {
		t.Errorf("escaped kernel = %q, want art", esc.Kernel)
	}

	err := json.Unmarshal([]byte(`{"kernel":"art","predictor":"lvp","bogus":1}`), &SpecRequest{})
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("unknown field must be rejected, got: %v", err)
	}

	// Called directly (as decodeBody calls a frame's codec), the codec takes
	// one value and nothing after it — on the fast path and the fallback
	// alike.
	for _, body := range []string{
		`{"kernel":"gzip","predictor":"none"}{"kernel":"art"}`,
		`{"kernel":"gzip","predictor":"none"} trailing-garbage`,
		`{"kernel":"gz\u0069p","predictor":"none"} {}`,
	} {
		if err := new(SpecRequest).UnmarshalJSON([]byte(body)); err == nil {
			t.Errorf("%s: trailing data accepted", body)
		}
	}
}

// reflectFrame is BatchSyncRequest without its methods, over spec requests
// without theirs — the encoding/json oracle for the frame codec.
type reflectFrame struct {
	Specs []reflectSpecRequest `json:"specs"`
}

// FuzzSpecFrame pins the spec-frame codec, which every remote Runner call
// rides, against encoding/json: BatchSyncRequest.UnmarshalJSON accepts
// exactly the bytes a strict encoding/json decode accepts (unknown fields
// rejected, one value and nothing but whitespace after it) and yields the
// same value; whatever it accepts, MarshalJSON re-encodes byte for byte as
// the reflection encoder does, and the bytes decode back to the same value.
func FuzzSpecFrame(f *testing.F) {
	for _, reqs := range [][]SpecRequest{wireTestSpecRequests(), nil, {}} {
		b, err := BatchSyncRequest{Specs: reqs}.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
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
		var want []SpecRequest
		if oracle.Specs != nil {
			want = make([]SpecRequest, len(oracle.Specs))
			for i, sp := range oracle.Specs {
				want[i] = SpecRequest(sp)
			}
		}
		if !reflect.DeepEqual(got.Specs, want) {
			t.Fatalf("%q:\ncodec         %#v\nencoding/json %#v", data, got.Specs, want)
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

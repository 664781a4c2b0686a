package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"

	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/wirejson"
)

// Hand-rolled JSON codecs for the batched wire path (DESIGN.md §12.3): a
// batch-sync frame carries thousands of specs in and records out,
// and encoding/json's per-element machinery (scan, reflect, re-scan) was
// the dominant cost of a warm frame on both sides. The frame types parse
// and emit in one scanner pass; byte-compatibility and semantics match
// encoding/json exactly, with a stdlib fallback for anything unusual —
// the API's strict unknown-field rejection included (the fallback is
// decodeStrict, so strictness predating the fast path survives it).

// decodeStrict is the API's reflection decode: exactly one JSON value, no
// unknown field, and nothing but whitespace after the value — Unmarshal's
// whole-input rule with DisallowUnknownFields on top.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid data after top-level value")
	}
	return nil
}

// appendSpec appends sp's JSON object, byte-compatible with the reflection
// encoding of harness.Spec: its field order and omitempty rules, Counters
// and Recovery as their MarshalText spellings (plain ASCII, so quoting is
// all the escaping they need).
func appendSpec(b []byte, sp harness.Spec) []byte {
	b = append(b, `{"kernel":`...)
	b = wirejson.AppendString(b, sp.Kernel)
	b = append(b, `,"predictor":`...)
	b = wirejson.AppendString(b, sp.Predictor)
	if sp.Counters != harness.BaselineCounters {
		text, _ := sp.Counters.MarshalText() // never fails
		b = append(b, `,"counters":"`...)
		b = append(append(b, text...), '"')
	}
	if sp.Recovery != pipeline.SquashAtCommit {
		text, _ := sp.Recovery.MarshalText() // never fails
		b = append(b, `,"recovery":"`...)
		b = append(append(b, text...), '"')
	}
	if sp.Width != 0 {
		b = append(b, `,"width":`...)
		b = strconv.AppendInt(b, int64(sp.Width), 10)
	}
	if sp.LoadsOnly {
		b = append(b, `,"loads_only":true`...)
	}
	if sp.MaxHist != 0 {
		b = append(b, `,"max_hist":`...)
		b = strconv.AppendInt(b, int64(sp.MaxHist), 10)
	}
	if sp.FPCVec != "" {
		b = append(b, `,"fpc_vector":`...)
		b = wirejson.AppendString(b, sp.FPCVec)
	}
	if sp.Program != "" {
		b = append(b, `,"program":`...)
		b = wirejson.AppendString(b, sp.Program)
	}
	return append(b, '}')
}

// parseSpec consumes one spec object from s, in any key order, reading
// Counters and Recovery through their UnmarshalText; escapes, unknown keys,
// an unknown spelling or anything else report false for the fallback,
// whose strict decode then reports the error.
func parseSpec(s *wirejson.Scanner) (harness.Spec, bool) {
	var sp harness.Spec
	ok := s.Object(func(name []byte) bool {
		var ok bool
		var text []byte
		switch string(name) {
		case "kernel":
			sp.Kernel, ok = s.String()
		case "predictor":
			sp.Predictor, ok = s.String()
		case "counters":
			text, ok = s.Bytes()
			ok = ok && sp.Counters.UnmarshalText(text) == nil
		case "recovery":
			text, ok = s.Bytes()
			ok = ok && sp.Recovery.UnmarshalText(text) == nil
		case "width":
			sp.Width, ok = s.Int()
		case "loads_only":
			sp.LoadsOnly, ok = s.Bool()
		case "max_hist":
			sp.MaxHist, ok = s.Int()
		case "fpc_vector":
			sp.FPCVec, ok = s.String()
		case "program":
			sp.Program, ok = s.String()
		}
		return ok
	})
	return sp, ok
}

// MarshalJSON emits the whole frame in one pass — {"specs":[...]} — so the
// client pays one appender walk instead of per-element reflection.
func (r BatchSyncRequest) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 64+128*len(r.Specs))
	b = append(b, `{"specs":`...)
	if r.Specs == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, sp := range r.Specs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSpec(b, sp)
	}
	return append(b, ']', '}'), nil
}

// UnmarshalJSON parses the whole frame in one scanner pass; any surprise
// falls back to decodeStrict.
func (r *BatchSyncRequest) UnmarshalJSON(b []byte) error {
	s := wirejson.NewScanner(b)
	specs, ok := parseSpecFrame(s)
	if ok && s.End() {
		r.Specs = specs
		return nil
	}
	type plain BatchSyncRequest
	var p plain
	if err := decodeStrict(bytes.NewReader(b), &p); err != nil {
		return err
	}
	*r = BatchSyncRequest(p)
	return nil
}

func parseSpecFrame(s *wirejson.Scanner) ([]harness.Spec, bool) {
	if !s.Byte('{') {
		return nil, false
	}
	if key, ok := s.String(); !ok || key != "specs" || !s.Byte(':') {
		return nil, false
	}
	if !s.Byte('[') {
		return nil, false
	}
	specs := []harness.Spec{} // [] decodes to an empty slice, as in encoding/json
	if s.Byte(']') {
		return specs, s.Byte('}')
	}
	for {
		sp, ok := parseSpec(s)
		if !ok {
			return nil, false
		}
		specs = append(specs, sp)
		if s.Byte(',') {
			continue
		}
		return specs, s.Byte(']') && s.Byte('}')
	}
}

// MarshalJSON emits the whole response — {"records":[...]} — in one
// appender walk; NaN/Inf anywhere defers to encoding/json for its standard
// error.
func (r BatchSyncResponse) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 64+360*len(r.Records))
	b = append(b, `{"records":`...)
	if r.Records == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, rec := range r.Records {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = harness.AppendRecordJSON(b, rec); !ok {
			type plain BatchSyncResponse
			return json.Marshal(plain(r))
		}
	}
	return append(b, ']', '}'), nil
}

// UnmarshalJSON parses the whole response in one scanner pass, with the
// lenient reflection decoder as fallback (unknown fields ignored, matching
// the client's pre-fast-path behavior).
func (r *BatchSyncResponse) UnmarshalJSON(b []byte) error {
	s := wirejson.NewScanner(b)
	recs, ok := parseRecordFrame(s)
	if ok && s.End() {
		r.Records = recs
		return nil
	}
	type plain BatchSyncResponse
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*r = BatchSyncResponse(p)
	return nil
}

func parseRecordFrame(s *wirejson.Scanner) ([]harness.Record, bool) {
	if !s.Byte('{') {
		return nil, false
	}
	if key, ok := s.String(); !ok || key != "records" || !s.Byte(':') {
		return nil, false
	}
	if !s.Byte('[') {
		return nil, false
	}
	var recs []harness.Record
	if s.Byte(']') {
		return recs, s.Byte('}')
	}
	for {
		rec, ok := harness.ParseRecord(s)
		if !ok {
			return nil, false
		}
		recs = append(recs, rec)
		if s.Byte(',') {
			continue
		}
		return recs, s.Byte(']') && s.Byte('}')
	}
}

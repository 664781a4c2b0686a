package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"

	"repro/internal/harness"
	"repro/internal/wirejson"
)

// Hand-rolled JSON codecs for the batched wire path (DESIGN.md §12.3): a
// batch-sync frame carries thousands of spec requests in and records out,
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

// appendSpecRequest appends r's JSON object, byte-compatible with the
// reflection encoding (field order and omitempty behavior included).
func appendSpecRequest(b []byte, r SpecRequest) []byte {
	b = append(b, `{"kernel":`...)
	b = wirejson.AppendString(b, r.Kernel)
	if r.Program != "" {
		b = append(b, `,"program":`...)
		b = wirejson.AppendString(b, r.Program)
	}
	b = append(b, `,"predictor":`...)
	b = wirejson.AppendString(b, r.Predictor)
	if r.Counters != "" {
		b = append(b, `,"counters":`...)
		b = wirejson.AppendString(b, r.Counters)
	}
	if r.Recovery != "" {
		b = append(b, `,"recovery":`...)
		b = wirejson.AppendString(b, r.Recovery)
	}
	if r.Width != 0 {
		b = append(b, `,"width":`...)
		b = strconv.AppendInt(b, int64(r.Width), 10)
	}
	if r.LoadsOnly {
		b = append(b, `,"loads_only":true`...)
	}
	if r.MaxHist != 0 {
		b = append(b, `,"max_hist":`...)
		b = strconv.AppendInt(b, int64(r.MaxHist), 10)
	}
	if r.FPCVector != "" {
		b = append(b, `,"fpc_vector":`...)
		b = wirejson.AppendString(b, r.FPCVector)
	}
	return append(b, '}')
}

// MarshalJSON implements json.Marshaler byte-compatibly with the default
// reflection encoding.
func (r SpecRequest) MarshalJSON() ([]byte, error) {
	return appendSpecRequest(make([]byte, 0, 128), r), nil
}

// UnmarshalJSON implements json.Unmarshaler: fast scanner first, then
// decodeStrict — so unknown fields still fail with the standard "json:
// unknown field" error the API has always returned.
func (r *SpecRequest) UnmarshalJSON(b []byte) error {
	s := wirejson.NewScanner(b)
	if req, ok := parseSpecRequest(s); ok && s.End() {
		*r = req
		return nil
	}
	type plain SpecRequest
	var p plain
	if err := decodeStrict(bytes.NewReader(b), &p); err != nil {
		return err
	}
	*r = SpecRequest(p)
	return nil
}

// parseSpecRequest consumes one spec-request object from s, in any key
// order; escapes, unknown keys, or anything else report false for the
// fallback.
func parseSpecRequest(s *wirejson.Scanner) (SpecRequest, bool) {
	var req SpecRequest
	if !s.Byte('{') {
		return req, false
	}
	if s.Byte('}') {
		return req, true
	}
	for {
		key, ok := s.String()
		if !ok || !s.Byte(':') {
			return req, false
		}
		switch key {
		case "kernel":
			req.Kernel, ok = s.String()
		case "program":
			req.Program, ok = s.String()
		case "predictor":
			req.Predictor, ok = s.String()
		case "counters":
			req.Counters, ok = s.String()
		case "recovery":
			req.Recovery, ok = s.String()
		case "width":
			req.Width, ok = s.Int()
		case "loads_only":
			req.LoadsOnly, ok = s.Bool()
		case "max_hist":
			req.MaxHist, ok = s.Int()
		case "fpc_vector":
			req.FPCVector, ok = s.String()
		default:
			return req, false
		}
		if !ok {
			return req, false
		}
		if s.Byte(',') {
			continue
		}
		return req, s.Byte('}')
	}
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
		b = appendSpecRequest(b, sp)
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

func parseSpecFrame(s *wirejson.Scanner) ([]SpecRequest, bool) {
	if !s.Byte('{') {
		return nil, false
	}
	if key, ok := s.String(); !ok || key != "specs" || !s.Byte(':') {
		return nil, false
	}
	if !s.Byte('[') {
		return nil, false
	}
	specs := []SpecRequest{} // [] decodes to an empty slice, as in encoding/json
	if s.Byte(']') {
		return specs, s.Byte('}')
	}
	for {
		sp, ok := parseSpecRequest(s)
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

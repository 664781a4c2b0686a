package harness

import (
	"encoding/json"

	"repro/internal/pipeline"
	"repro/internal/wirejson"
)

// Record's hand-rolled JSON codec. A warm batch-sync frame is thousands of
// records whose encode and decode both sat on encoding/json's reflection —
// the single largest cost of the batched wire path (DESIGN.md §12.3). The
// appender emits exactly the bytes the reflection encoder emitted (field
// order, float formatting, no omitted fields), so every byte-identity
// guarantee — differential tests, stable WriteJSON output — is preserved;
// wire_test pins the equivalence. The parser consumes from a shared
// wirejson.Scanner so a whole frame parses in one pass; callers fall back
// to encoding/json on any input it does not recognize, keeping semantics
// (unknown fields ignored, escapes handled) identical.

// AppendRecordJSON appends r's JSON object to b, byte-compatible with the
// reflection encoder. ok is false when a float is NaN or Inf — the caller
// should defer to encoding/json for its standard UnsupportedValueError.
func AppendRecordJSON(b []byte, r Record) (out []byte, ok bool) {
	appendStr := func(key, v string) {
		b = append(b, '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		b = wirejson.AppendString(b, v)
		b = append(b, ',')
	}
	floatsOK := true
	appendFloat := func(key string, v float64) {
		b = append(b, '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		var fok bool
		b, fok = wirejson.AppendFloat(b, v)
		floatsOK = floatsOK && fok
		b = append(b, ',')
	}
	appendUint := func(key string, v uint64) {
		b = append(b, '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		b = appendUint64(b, v)
		b = append(b, ',')
	}
	b = append(b, '{')
	appendStr("kernel", r.Kernel)
	appendStr("predictor", r.Predictor)
	appendStr("counters", r.Counters)
	appendStr("recovery", r.Recovery)
	b = append(b, `"width":`...)
	b = appendInt64(b, int64(r.Width))
	b = append(b, `,"loads_only":`...)
	b = appendBool(b, r.LoadsOnly)
	b = append(b, `,"max_hist":`...)
	b = appendInt64(b, int64(r.MaxHist))
	b = append(b, ',')
	appendStr("fpc_vector", r.FPCVector)
	appendFloat("ipc", r.IPC)
	appendFloat("speedup", r.Speedup)
	appendFloat("coverage", r.Coverage)
	appendFloat("accuracy", r.Accuracy)
	appendUint("committed", r.Committed)
	b = append(b, `"cycles":`...)
	b = appendInt64(b, r.Cycles)
	b = append(b, ',')
	appendUint("squash_value", r.SquashValue)
	appendUint("squash_branch", r.SquashBranch)
	appendUint("squash_memorder", r.SquashMemOrder)
	appendUint("reissued_uops", r.ReissuedUops)
	appendFloat("branch_mpki", r.BranchMPKI)
	appendFloat("b2b_fraction", r.B2BFraction)
	b[len(b)-1] = '}'
	return b, floatsOK
}

// MarshalJSON implements json.Marshaler byte-compatibly with the default
// reflection encoding of the struct.
func (r Record) MarshalJSON() ([]byte, error) {
	b, ok := AppendRecordJSON(make([]byte, 0, 360), r)
	if !ok {
		type plain Record
		return json.Marshal(plain(r))
	}
	return b, nil
}

func appendInt64(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	return appendUint64(b, uint64(v))
}

func appendUint64(b []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// UnmarshalJSON implements json.Unmarshaler: the fast scanner first, then
// encoding/json (which ignores unknown fields and decodes escapes) whenever
// the input is anything but a plain record object.
func (r *Record) UnmarshalJSON(b []byte) error {
	s := wirejson.NewScanner(b)
	if rec, ok := ParseRecord(s); ok && s.End() {
		*r = rec
		return nil
	}
	type plain Record
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*r = Record(p)
	return nil
}

// ParseRecord consumes one record object from s — the exact shape
// AppendRecordJSON (or the reflection encoder) emits, in any key order,
// with arbitrary whitespace. Anything else — escapes, non-ASCII, unknown
// keys, non-object input — reports false; the caller falls back to
// encoding/json on whatever input s wraps.
func ParseRecord(s *wirejson.Scanner) (Record, bool) {
	var rec Record
	ok := s.Object(func(name []byte) bool {
		var ok bool
		switch string(name) {
		case "kernel":
			rec.Kernel, ok = s.String()
		case "predictor":
			rec.Predictor, ok = s.String()
		case "counters":
			rec.Counters, ok = s.String()
		case "recovery":
			rec.Recovery, ok = s.String()
		case "width":
			rec.Width, ok = s.Int()
		case "loads_only":
			rec.LoadsOnly, ok = s.Bool()
		case "max_hist":
			rec.MaxHist, ok = s.Int()
		case "fpc_vector":
			rec.FPCVector, ok = s.String()
		case "ipc":
			rec.IPC, ok = s.Float()
		case "speedup":
			rec.Speedup, ok = s.Float()
		case "coverage":
			rec.Coverage, ok = s.Float()
		case "accuracy":
			rec.Accuracy, ok = s.Float()
		case "committed":
			rec.Committed, ok = s.Uint64()
		case "cycles":
			rec.Cycles, ok = s.Int64()
		case "squash_value":
			rec.SquashValue, ok = s.Uint64()
		case "squash_branch":
			rec.SquashBranch, ok = s.Uint64()
		case "squash_memorder":
			rec.SquashMemOrder, ok = s.Uint64()
		case "reissued_uops":
			rec.ReissuedUops, ok = s.Uint64()
		case "branch_mpki":
			rec.BranchMPKI, ok = s.Float()
		case "b2b_fraction":
			rec.B2BFraction, ok = s.Float()
		}
		return ok
	})
	return rec, ok
}

// allStatsFields is parseStats' seen-set once every pipeline.Stats field has
// been read: one bit per field.
const allStatsFields = 1<<24 - 1

// parseStats consumes one pipeline.Stats object from s into st: the store's
// payload codec. It reads the shape encoding/json writes for the struct
// (field names as keys, integers as values) in any key order, with any
// whitespace, and is strict where a persisted result needs it: every field
// exactly once, no other key, no null, and no value that is not an integer
// in its field's range. A damaged or schema-drifted entry is then a miss,
// never a zero-filled hit.
func parseStats(s *wirejson.Scanner, st *pipeline.Stats) bool {
	var seen uint32
	ok := s.Object(func(name []byte) bool {
		var bit uint32
		var u *uint64 // the uint64 field named; the two int64 fields parse in their case
		ok := true
		switch string(name) {
		case "Cycles":
			bit = 1 << 0
			st.Cycles, ok = s.Int64()
		case "Committed":
			bit, u = 1<<1, &st.Committed
		case "WarmCycles":
			bit = 1 << 2
			st.WarmCycles, ok = s.Int64()
		case "WarmCommitted":
			bit, u = 1<<3, &st.WarmCommitted
		case "Eligible":
			bit, u = 1<<4, &st.Eligible
		case "Used":
			bit, u = 1<<5, &st.Used
		case "UsedCorrect":
			bit, u = 1<<6, &st.UsedCorrect
		case "UsedWrong":
			bit, u = 1<<7, &st.UsedWrong
		case "WrongUnused":
			bit, u = 1<<8, &st.WrongUnused
		case "SquashBranch":
			bit, u = 1<<9, &st.SquashBranch
		case "SquashValue":
			bit, u = 1<<10, &st.SquashValue
		case "SquashMemOrder":
			bit, u = 1<<11, &st.SquashMemOrder
		case "ReissuedUops":
			bit, u = 1<<12, &st.ReissuedUops
		case "CondBranches":
			bit, u = 1<<13, &st.CondBranches
		case "CondMispredicts":
			bit, u = 1<<14, &st.CondMispredicts
		case "FetchedUops":
			bit, u = 1<<15, &st.FetchedUops
		case "B2BEligible":
			bit, u = 1<<16, &st.B2BEligible
		case "FetchIMissStalls":
			bit, u = 1<<17, &st.FetchIMissStalls
		case "BTBBubbles":
			bit, u = 1<<18, &st.BTBBubbles
		case "StallROB":
			bit, u = 1<<19, &st.StallROB
		case "StallIQ":
			bit, u = 1<<20, &st.StallIQ
		case "StallLQ":
			bit, u = 1<<21, &st.StallLQ
		case "StallSQ":
			bit, u = 1<<22, &st.StallSQ
		case "StallRegs":
			bit, u = 1<<23, &st.StallRegs
		default:
			return false
		}
		if u != nil {
			*u, ok = s.Uint64()
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
	return ok && seen == allStatsFields
}

package wirejson

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestAppendFloatMatchesEncodingJSON pins the byte-compatibility contract:
// for every representable value class — integral, fractional, subnormal-ish
// exponents on both sides of the e-07 rewrite, huge magnitudes — AppendFloat
// must produce exactly what encoding/json produces, or the wire structs'
// hand-rolled marshalers would silently break byte-identical differential
// output.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	values := []float64{
		0, 1, -1, 0.5, -0.25, 1.0 / 3.0, 2.0 / 3.0,
		1e-5, 1e-6, 9.999e-7, 1e-7, 1e-9, -1e-7,
		1e20, 1e21, 1.5e21, -2.5e22, 1e300, 5e-324,
		3.141592653589793, 123456.789, 0.6931471805599453,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	// A deterministic xorshift sweep adds coverage without flaky randomness.
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 500; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f := math.Float64frombits(x)
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			values = append(values, f)
		}
	}
	for _, f := range values {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		got, ok := AppendFloat(nil, f)
		if !ok {
			t.Errorf("AppendFloat(%v) refused a finite value", f)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json = %s", f, got, want)
		}
	}
	if _, ok := AppendFloat(nil, math.NaN()); ok {
		t.Error("AppendFloat(NaN) must report false")
	}
	if _, ok := AppendFloat(nil, math.Inf(1)); ok {
		t.Error("AppendFloat(+Inf) must report false")
	}
}

// TestAppendStringMatchesEncodingJSON covers the plain fast path and the
// escape fallback (quotes, backslashes, control bytes, HTML characters,
// UTF-8) against encoding/json's default encoder.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "art", "prog:4b3f", "lvp,stride", "a b_c-d.e/f",
		`quo"te`, `back\slash`, "tab\there", "html <b>&</b>", "µops", "\x01",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json = %s", s, got, want)
		}
	}
}

// TestScannerRoundTrip drives the scanner over a compact object and a
// whitespace-padded one, and checks the fallback triggers (escaped string,
// trailing garbage).
func TestScannerRoundTrip(t *testing.T) {
	for _, in := range []string{
		`{"k":"art","n":-3,"f":0.25,"b":true,"u":18446744073709551615}`,
		" {\n  \"k\": \"art\",\t\"n\": -3 , \"f\": 0.25, \"b\": true, \"u\": 18446744073709551615\n} ",
	} {
		s := NewScanner([]byte(in))
		if !s.Byte('{') {
			t.Fatalf("%q: missing {", in)
		}
		if k, ok := s.String(); !ok || k != "k" {
			t.Fatalf("%q: key = %q, %v", in, k, ok)
		}
		if !s.Byte(':') {
			t.Fatal("missing :")
		}
		if v, ok := s.String(); !ok || v != "art" {
			t.Fatalf("value = %q, %v", v, ok)
		}
		s.Byte(',')
		s.String()
		s.Byte(':')
		if n, ok := s.Int(); !ok || n != -3 {
			t.Fatalf("int = %d, %v", n, ok)
		}
		s.Byte(',')
		s.String()
		s.Byte(':')
		if f, ok := s.Float(); !ok || f != 0.25 {
			t.Fatalf("float = %v, %v", f, ok)
		}
		s.Byte(',')
		s.String()
		s.Byte(':')
		if b, ok := s.Bool(); !ok || !b {
			t.Fatalf("bool = %v, %v", b, ok)
		}
		s.Byte(',')
		s.String()
		s.Byte(':')
		if u, ok := s.Uint64(); !ok || u != math.MaxUint64 {
			t.Fatalf("uint64 = %d, %v", u, ok)
		}
		if !s.Byte('}') || !s.End() {
			t.Fatalf("%q: unterminated", in)
		}
	}

	// Anything encoding/json could decode differently from its bytes —
	// escapes, control bytes, non-ASCII (invalid UTF-8 becomes U+FFFD
	// there) — must report false: the fallback path.
	for _, in := range []string{`"esc\"aped"`, "\"tab\there\"", `"µops"`, "\"\xff\"", "\"\xc3\"", `"open`} {
		if _, ok := NewScanner([]byte(in)).String(); ok {
			t.Errorf("String accepted %q", in)
		}
	}
	s := NewScanner([]byte(`{} trailing`))
	s.Byte('{')
	s.Byte('}')
	if s.End() {
		t.Error("trailing garbage must fail End")
	}
}

// TestScannerNumberGrammar pins number tokens to RFC 8259: Float accepts a
// token exactly when encoding/json does (values out of float64 range aside),
// and the integer parsers also refuse a fraction or an exponent, as
// encoding/json does for integer fields.
func TestScannerNumberGrammar(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "7", "-7", "10", "1.5", "-0.25", "1e3", "1E+3", "1e-3", "2.5e-07",
		"+5", "05", "-05", "00", "1.", ".5", "-.5", "1.e3", "1e", "1e+", "-", "--1", "+",
		"0x10", "1_000", "Inf", "NaN", "1.5.5", "1e3e3", "",
	} {
		s := NewScanner([]byte(tok))
		_, ok := s.Float()
		ok = ok && s.End()
		if want := json.Valid([]byte(tok)); ok != want {
			t.Errorf("Float accepts %q: %v; encoding/json: %v", tok, ok, want)
		}
	}
	for _, tok := range []string{"1.0", "1e2", "1E0", "-0.0"} {
		_, okInt := NewScanner([]byte(tok)).Int()
		_, okInt64 := NewScanner([]byte(tok)).Int64()
		_, okUint64 := NewScanner([]byte(tok)).Uint64()
		if okInt || okInt64 || okUint64 {
			t.Errorf("an integer parser accepted the non-integer %q", tok)
		}
	}
	if n, ok := NewScanner([]byte("-0")).Int64(); !ok || n != 0 {
		t.Errorf("Int64(-0) = %d, %v", n, ok)
	}
}

// scanMatches checks one Scanner reader, followed by End, against
// json.Unmarshal into T over the same bytes: the same inputs accepted, with
// the same value. The one deliberate difference is a bare null, which
// encoding/json reads as "leave the value unchanged": the scanner rejects
// it, so its callers fall back to encoding/json and keep that rule.
func scanMatches[T comparable](t *testing.T, data []byte, name string, read func(*Scanner) (T, bool)) {
	t.Helper()
	s := NewScanner(data)
	got, ok := read(s)
	ok = ok && s.End()
	var want T
	err := json.Unmarshal(data, &want)
	if err == nil && strings.Trim(string(data), " \t\r\n") == "null" {
		if ok {
			t.Fatalf("%s accepted %q", name, data)
		}
		return
	}
	if ok != (err == nil) {
		t.Fatalf("%s(%q): scanner accepts %t, encoding/json error %v", name, data, ok, err)
	}
	if ok && got != want {
		t.Fatalf("%s(%q) = %v, encoding/json reads %v", name, data, got, want)
	}
}

// FuzzScanner pins the scanner and the appenders against encoding/json,
// their reference: Float, Int, Int64, Uint64 and Bool, each followed by
// End, accept exactly what json.Unmarshal into float64, int, int64, uint64
// and bool accepts, with the same value; whatever String accepts decodes to
// the same string through encoding/json, and a quoted run of printable
// ASCII with no quote or backslash is always accepted; AppendString, and
// AppendFloat on finite values, write what json.Marshal writes.
func FuzzScanner(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", " 7 ", "1.5e3", "-2.5E-07", "18446744073709551615", "9223372036854775808",
		"-9223372036854775809", "1e400", "01", "1.", "-", "true", "false", " truex", "null",
		`"plain"`, `"esc\"aped"`, `"é"`, "\"\x7f\"", "\"\xff\"", `"open`, "\x00\x00\x00\x00\x00\x00\xf0\x3f",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scanMatches(t, data, "Float", (*Scanner).Float)
		scanMatches(t, data, "Int", (*Scanner).Int)
		scanMatches(t, data, "Int64", (*Scanner).Int64)
		scanMatches(t, data, "Uint64", (*Scanner).Uint64)
		scanMatches(t, data, "Bool", (*Scanner).Bool)

		s := NewScanner(data)
		if str, ok := s.String(); ok {
			var want string
			if err := json.Unmarshal(data[:s.i], &want); err != nil || str != want {
				t.Fatalf("String(%q) = %q, encoding/json reads %q (%v)", data[:s.i], str, want, err)
			}
		}
		plain := []byte{'"'}
		for _, c := range data {
			if c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' {
				plain = append(plain, c)
			}
		}
		plain = append(plain, '"')
		if str, ok := NewScanner(plain).String(); !ok || str != string(plain[1:len(plain)-1]) {
			t.Fatalf("String(%s) = %q, %t", plain, str, ok)
		}

		if want, _ := json.Marshal(string(data)); !bytes.Equal(AppendString(nil, string(data)), want) {
			t.Fatalf("AppendString(%q) = %s, encoding/json = %s", data, AppendString(nil, string(data)), want)
		}
		if len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			got, ok := AppendFloat(nil, v)
			want, err := json.Marshal(v)
			if ok != (err == nil) || ok && !bytes.Equal(got, want) {
				t.Fatalf("AppendFloat(%v) = %s (%t), encoding/json = %s (%v)", v, got, ok, want, err)
			}
		}
	})
}

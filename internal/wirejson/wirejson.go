// Package wirejson is the hand-rolled JSON fast path for the service wire
// structs (DESIGN.md §12.3). encoding/json's reflection costs ~5 µs per
// 20-field record on each side of the wire, which dominates a warm
// batch-sync frame; the appenders and the scanner here cut that to the cost
// of a few strconv calls. The contract is strict byte-compatibility:
//
//   - AppendFloat reproduces encoding/json's float formatting exactly
//     (including the e-07 → e-7 rewrite), so emitted records stay
//     byte-identical to the reflection encoder's output;
//   - AppendString emits plain ASCII strings verbatim and defers anything
//     needing escapes to encoding/json itself;
//   - Scanner parses a strict subset of JSON in one pass: objects with any
//     whitespace, plain printable-ASCII strings without escapes, numbers in
//     RFC 8259's grammar (integers without fraction or exponent), true and
//     false. Whatever it accepts, encoding/json accepts and reads the same
//     way. Anything else reports failure: the wire codecs then fall back to
//     encoding/json, so unusual input costs one extra parse instead of an
//     error, and the store's read pass treats the entry as a miss.
package wirejson

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendFloat appends f exactly as encoding/json encodes a float64. The
// second result is false for NaN and infinities, which JSON cannot carry —
// the caller should defer to encoding/json for its standard error.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json rewrites a two-digit zero-padded exponent: e-07 → e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// plainString reports whether s needs no JSON escaping under encoding/json's
// default (HTML-escaping) encoder: printable ASCII without quotes,
// backslashes, or the HTML-significant characters.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// AppendString appends s as a JSON string, matching encoding/json's output
// byte for byte (escapes included, via encoding/json itself on the rare
// non-plain string).
func AppendString(b []byte, s string) []byte {
	if plainString(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	esc, err := json.Marshal(s)
	if err != nil { // a string cannot fail to marshal; defensive only
		return append(b, '"', '"')
	}
	return append(b, esc...)
}

// Scanner is a non-allocating cursor over one JSON value. Every Parse*
// method consumes leading whitespace, then either consumes its token and
// returns true, or returns false leaving the input conceptually invalid —
// the caller abandons the fast path and re-parses with encoding/json. A
// false result therefore never needs to carry a reason.
type Scanner struct {
	buf []byte
	i   int
}

// NewScanner returns a scanner over b.
func NewScanner(b []byte) *Scanner { return &Scanner{buf: b} }

func (s *Scanner) ws() {
	for s.i < len(s.buf) {
		switch s.buf[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// Byte consumes the single byte c (a structural token: '{', '}', ':', ',').
func (s *Scanner) Byte(c byte) bool {
	s.ws()
	if s.i < len(s.buf) && s.buf[s.i] == c {
		s.i++
		return true
	}
	return false
}

// Bytes parses a plain JSON string — printable ASCII, no escapes — and
// returns its contents without copying: the slice aliases the scanner's
// input. Escapes, control bytes and any byte outside ASCII report false, so
// the fast path never decodes them differently from encoding/json (which
// substitutes U+FFFD for invalid UTF-8).
func (s *Scanner) Bytes() ([]byte, bool) {
	s.ws()
	if s.i >= len(s.buf) || s.buf[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.buf); j++ {
		switch c := s.buf[j]; {
		case c == '"':
			out := s.buf[s.i+1 : j]
			s.i = j + 1
			return out, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// String parses a plain JSON string, as Bytes does, into a new string.
func (s *Scanner) String() (string, bool) {
	b, ok := s.Bytes()
	return string(b), ok
}

// Object consumes one JSON object. For each member it reads the name (a
// plain string, as Bytes reads it) and the ':' after it, then calls member
// with the name, which must consume the member's value and report whether
// it parsed; the name aliases the input and is valid only during the call.
// Object reports false on malformed structure or on member's first false.
func (s *Scanner) Object(member func(name []byte) bool) bool {
	if !s.Byte('{') {
		return false
	}
	if s.Byte('}') {
		return true
	}
	for {
		name, ok := s.Bytes()
		if !ok || !s.Byte(':') || !member(name) {
			return false
		}
		if !s.Byte(',') {
			return s.Byte('}')
		}
	}
}

// number consumes one JSON number token in RFC 8259's grammar — an optional
// minus, then 0 or a digit run without a leading zero, then an optional
// fraction and an optional exponent, each with at least one digit — and
// returns its bytes. integer reports that the token has neither a fraction
// nor an exponent, the only form encoding/json decodes into an integer.
func (s *Scanner) number() (tok []byte, integer, ok bool) {
	s.ws()
	b, i := s.buf, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i, integer = j, false
	}
	tok = b[s.i:i]
	s.i = i
	return tok, integer, true
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// integer consumes a number token that has neither a fraction nor an
// exponent.
func (s *Scanner) integer() ([]byte, bool) {
	tok, integer, ok := s.number()
	return tok, ok && integer
}

// Float parses a JSON number as float64.
func (s *Scanner) Float() (float64, bool) {
	tok, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// Int parses a JSON integer as int.
func (s *Scanner) Int() (int, bool) {
	tok, ok := s.integer()
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(string(tok))
	return n, err == nil
}

// Int64 parses a JSON integer as int64.
func (s *Scanner) Int64() (int64, bool) {
	tok, ok := s.integer()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	return n, err == nil
}

// Uint64 parses a JSON integer as uint64.
func (s *Scanner) Uint64() (uint64, bool) {
	tok, ok := s.integer()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	return n, err == nil
}

// Bool parses true or false.
func (s *Scanner) Bool() (bool, bool) {
	s.ws()
	rest := s.buf[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// End reports whether only trailing whitespace remains — encoding/json's
// whole-input rule, so the fast path accepts exactly one value too.
func (s *Scanner) End() bool {
	s.ws()
	return s.i == len(s.buf)
}

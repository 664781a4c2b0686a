// Package store is a persistent, content-addressed record store: the disk
// extension of the harness session's in-process memo. Each entry is one
// immutable simulation result, addressed by a key hashed from everything
// that determines the result (canonical spec, kernel fingerprint, window
// sizing, simulator version token — the caller assembles the parts, KeyOf
// hashes them). A populated directory makes warm-start the norm: a fresh
// process pays disk reads instead of simulations, and any number of
// processes can share one directory.
//
// Robustness contract (DESIGN.md §8): a load can only ever produce the
// exact record that was stored, or a miss. Get reads an entry in one strict
// pass over its bytes and hands the payload to a decoder the caller
// supplies. Truncated files, garbage bytes, a stale version token, entries
// whose recorded key or identity does not match the requested one, and
// payloads the decoder rejects — null, empty, missing a field or carrying
// an unknown one — all degrade silently to a miss: the caller re-simulates
// and overwrites. Put writes entries with encoding/json; the read path does
// not use it, and the tests keep it as the oracle. Writes go through a temp
// file and an atomic rename, so concurrent writers (including other
// processes) can race on one key and readers still only ever observe
// complete entries.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/wirejson"
)

// Key is a content-addressed entry key: the SHA-256 of the identity parts.
type Key [sha256.Size]byte

// KeyOf hashes the identity parts into a Key. Parts are length-prefixed, so
// distinct part lists can never collide by concatenation ("ab","c" vs
// "a","bc").
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// String renders the key as lowercase hex — also the entry's file name.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Stats is a snapshot of the store's counters since Open.
type Stats struct {
	Hits        uint64 // loads that returned a valid entry
	Misses      uint64 // loads that found no entry file
	LoadErrors  uint64 // loads rejected: corrupt, stale version, or mismatched identity
	Writes      uint64 // entries persisted
	WriteErrors uint64 // failed persists (disk full, permissions); never fatal
}

// Store is one directory of entries plus load/write counters. Safe for
// concurrent use by any number of goroutines and processes.
type Store struct {
	dir     string
	version string

	hits, misses, loadErrs, writes, writeErrs atomic.Uint64
}

// envelope is the on-disk form of one entry, as Put writes it. Version and
// Key are verified on load (a copied or hand-edited file is rejected); ID is
// the human-readable identity the caller derived the key from, re-checked so
// that even a key-collision-shaped mismatch degrades to a miss instead of
// serving a wrong record.
type envelope struct {
	Version string          `json:"version"`
	Key     string          `json:"key"`
	ID      string          `json:"id"`
	Payload json.RawMessage `json:"payload"`
}

// Open opens (creating if needed) the store rooted at dir. version is the
// simulator version token: entries written under any other token are
// treated as misses, never served.
func Open(dir, version string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, version: version}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Version returns the version token entries are written and verified under.
func (s *Store) Version() string { return s.version }

// path is the entry file for key.
func (s *Store) path(key Key) string {
	return filepath.Join(s.dir, key.String()+".json")
}

// Get loads the entry for key in one strict pass over the file's bytes and
// reports whether a valid entry was found. The entry must be one JSON object
// with exactly the members version, key, id and payload, each once, in any
// order: version must be the store's token, key the entry's own hex key and
// id the identity recorded at Put time, each a plain string as
// wirejson.Scanner.Bytes reads one. decode is handed the scanner at the
// payload. It must consume exactly that value and report whether it was
// whole: an unknown field means the payload schema moved without a version
// bump, and a zero-filled result from a null, empty or partial payload is
// worse than a miss. The scanner's input is valid only during the call.
//
// Every failure — missing file, truncated or garbage bytes, version or
// identity mismatch, a payload decode rejects — returns false. decode may
// have run by then, so the caller keeps what it decoded only on true.
func (s *Store) Get(key Key, id string, decode func(*wirejson.Scanner) bool) bool {
	buf, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return false
	}
	if !s.readEntry(buf, key, id, decode) {
		s.loadErrs.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// readEntry is Get's pass over one entry's bytes.
func (s *Store) readEntry(buf []byte, key Key, id string, decode func(*wirejson.Scanner) bool) bool {
	var hexKey [2 * sha256.Size]byte
	hex.Encode(hexKey[:], key[:])
	sc := wirejson.NewScanner(buf)
	var seen uint8
	ok := sc.Object(func(name []byte) bool {
		var bit uint8
		var ok bool
		switch string(name) {
		case "version":
			v, vok := sc.Bytes()
			bit, ok = 1, vok && string(v) == s.version
		case "key":
			v, vok := sc.Bytes()
			bit, ok = 2, vok && bytes.Equal(v, hexKey[:])
		case "id":
			v, vok := sc.Bytes()
			bit, ok = 4, vok && string(v) == id
		case "payload":
			bit, ok = 8, decode(sc)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
	return ok && seen == 1|2|4|8 && sc.End()
}

// Put persists v (via encoding/json) as the entry for key, recording id as
// its identity. The write is atomic — a temp file in the store directory
// renamed over the final name — so concurrent writers on one key are safe:
// both write complete, identical-content entries and the last rename wins.
// Errors are counted (WriteErrors) as well as returned; callers on a hot
// path may ignore them, since a failed write only costs a future miss.
func (s *Store) Put(key Key, id string, v any) error {
	fail := func(err error) error {
		s.writeErrs.Add(1)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fail(err)
	}
	buf, err := json.Marshal(envelope{
		Version: s.version,
		Key:     key.String(),
		ID:      id,
		Payload: payload,
	})
	if err != nil {
		return fail(err)
	}
	f, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fail(err)
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fail(err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fail(err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp)
		return fail(err)
	}
	s.writes.Add(1)
	return nil
}

// Len counts the entries currently on disk (a directory scan; for tests and
// tooling, not hot paths).
func (s *Store) Len() (int, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return 0, err
	}
	return len(matches), nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		LoadErrors:  s.loadErrs.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrs.Load(),
	}
}

// Tamper rewrites the raw bytes of key's entry file through f — the
// corruption-injection hook the robustness tests (and any fault-injection
// harness) drive: truncation, garbage, stale version tokens, copied
// envelopes. Unlike Put it writes in place and does not validate, so the
// result can be exactly as broken as requested. Returns an error if the
// entry does not exist.
func (s *Store) Tamper(key Key, f func([]byte) []byte) error {
	p := s.path(key)
	buf, err := os.ReadFile(p)
	if err != nil {
		return fmt.Errorf("store: tamper %s: %w", key, err)
	}
	return os.WriteFile(p, f(buf), 0o644)
}

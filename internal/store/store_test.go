package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/wirejson"
)

// payload is a stand-in for the result types callers persist.
type payload struct {
	A uint64  `json:"a"`
	B int64   `json:"b"`
	C float64 `json:"c"`
}

// into is payload's decoder for Get, strict the way a caller's must be:
// every field exactly once and nothing else.
func into(p *payload) func(*wirejson.Scanner) bool {
	return func(s *wirejson.Scanner) bool {
		var seen uint8
		ok := s.Object(func(name []byte) bool {
			var bit uint8
			var ok bool
			switch string(name) {
			case "a":
				bit = 1
				p.A, ok = s.Uint64()
			case "b":
				bit = 2
				p.B, ok = s.Int64()
			case "c":
				bit = 4
				p.C, ok = s.Float()
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			return true
		})
		return ok && seen == 1|2|4
	}
}

func open(t *testing.T, version string, dir ...string) *Store {
	t.Helper()
	d := ""
	if len(dir) > 0 {
		d = dir[0]
	} else {
		d = t.TempDir()
	}
	s, err := Open(d, version)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyOfPartsDoNotConcatenate(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("KeyOf collides across part boundaries")
	}
	if KeyOf("a") == KeyOf("a", "") {
		t.Fatal("KeyOf ignores empty trailing parts")
	}
	if len(KeyOf("x").String()) != 64 {
		t.Fatalf("key hex length = %d, want 64", len(KeyOf("x").String()))
	}
}

func TestRoundTrip(t *testing.T) {
	s := open(t, "v1")
	key := KeyOf("spec", "kernel-fp", "v1")
	want := payload{A: 42, B: -7, C: 1.25}
	if err := s.Put(key, "spec-id", want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s.Get(key, "spec-id", into(&got)) {
		t.Fatal("Get missed a just-written entry")
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.LoadErrors != 0 || st.Writes != 1 {
		t.Fatalf("stats after round trip: %+v", st)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = (%d, %v), want (1, nil)", n, err)
	}
}

func TestMissingEntryIsAMiss(t *testing.T) {
	s := open(t, "v1")
	var got payload
	if s.Get(KeyOf("absent"), "id", into(&got)) {
		t.Fatal("Get found an entry in an empty store")
	}
	if st := s.Stats(); st.Misses != 1 || st.LoadErrors != 0 {
		t.Fatalf("stats after miss: %+v", st)
	}
}

// corruptionCase writes one valid entry, corrupts it via Tamper, and expects
// Get to degrade to a miss (counted as a load error) without ever returning
// wrong data.
func corruptionCase(t *testing.T, corrupt func([]byte) []byte) {
	t.Helper()
	s := open(t, "v1")
	key := KeyOf("the-spec")
	if err := s.Put(key, "id", payload{A: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Tamper(key, corrupt); err != nil {
		t.Fatal(err)
	}
	got := payload{A: 999}
	if s.Get(key, "id", into(&got)) {
		t.Fatalf("Get served a corrupted entry: %+v", got)
	}
	if st := s.Stats(); st.LoadErrors != 1 || st.Hits != 0 {
		t.Fatalf("stats after corrupted load: %+v", st)
	}
	// The caller's recovery path: re-simulate and overwrite.
	if err := s.Put(key, "id", payload{A: 7}); err != nil {
		t.Fatal(err)
	}
	var again payload
	if !s.Get(key, "id", into(&again)) || again.A != 7 {
		t.Fatalf("overwrite after corruption did not restore the entry: %+v", again)
	}
}

// withMembers rewrites an entry's envelope through edit, which sees its
// members by name; the result is valid JSON, so only the store's own checks
// can reject it.
func withMembers(edit func(m map[string]json.RawMessage)) func([]byte) []byte {
	return func(b []byte) []byte {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			panic(err)
		}
		edit(m)
		out, err := json.Marshal(m)
		if err != nil {
			panic(err)
		}
		return out
	}
}

// withPayload swaps an entry's payload for raw.
func withPayload(raw string) func([]byte) []byte {
	return withMembers(func(m map[string]json.RawMessage) { m["payload"] = json.RawMessage(raw) })
}

func TestTruncatedFileIsAMiss(t *testing.T) {
	corruptionCase(t, func(b []byte) []byte { return b[:len(b)/2] })
}

func TestEmptyFileIsAMiss(t *testing.T) {
	corruptionCase(t, func(b []byte) []byte { return nil })
}

func TestGarbageBytesAreAMiss(t *testing.T) {
	corruptionCase(t, func(b []byte) []byte { return []byte("\x00\xff not json at all") })
}

func TestGarbagePayloadIsAMiss(t *testing.T) {
	// Valid envelope JSON whose payload cannot decode into the caller's type.
	corruptionCase(t, withPayload(`"not-a-struct"`))
}

func TestUnknownPayloadFieldIsAMiss(t *testing.T) {
	// A payload schema that moved without a version bump must reject rather
	// than decode partially.
	corruptionCase(t, withPayload(`{"a":7,"b":0,"c":0,"renamed_field":1}`))
}

// A payload that is null, empty or short of a field must not load as a hit
// of zeros: each is a load error like any other corruption.
func TestNullPayloadIsAMiss(t *testing.T) { corruptionCase(t, withPayload(`null`)) }

func TestEmptyPayloadIsAMiss(t *testing.T) { corruptionCase(t, withPayload(`{}`)) }

func TestPayloadMissingAFieldIsAMiss(t *testing.T) {
	corruptionCase(t, withPayload(`{"a":7,"b":0}`))
}

// TestEnvelopeMembersExactlyOnce: the envelope's members are version, key,
// id and payload, each exactly once; any other shape is a load error.
func TestEnvelopeMembersExactlyOnce(t *testing.T) {
	for name, edit := range map[string]func(m map[string]json.RawMessage){
		"payload missing": func(m map[string]json.RawMessage) { delete(m, "payload") },
		"id missing":      func(m map[string]json.RawMessage) { delete(m, "id") },
		"unknown member":  func(m map[string]json.RawMessage) { m["extra"] = json.RawMessage(`1`) },
	} {
		t.Run(name, func(t *testing.T) { corruptionCase(t, withMembers(edit)) })
	}
	t.Run("repeated member", func(t *testing.T) {
		// Both copies agree, so only the exactly-once rule rejects it.
		corruptionCase(t, func(b []byte) []byte {
			return append([]byte(`{"id":"id",`), b[1:]...)
		})
	})
}

func TestWrongVersionTokenIsAMiss(t *testing.T) {
	dir := t.TempDir()
	old := open(t, "v1", dir)
	key := KeyOf("spec")
	if err := old.Put(key, "id", payload{A: 1}); err != nil {
		t.Fatal(err)
	}
	// A new simulator version opens the same directory: the stale entry must
	// be invisible, and re-writing under the new token must take over.
	cur := open(t, "v2", dir)
	var got payload
	if cur.Get(key, "id", into(&got)) {
		t.Fatal("entry written under v1 served under v2")
	}
	if st := cur.Stats(); st.LoadErrors != 1 {
		t.Fatalf("stale version load not counted as a load error: %+v", st)
	}
	if err := cur.Put(key, "id", payload{A: 2}); err != nil {
		t.Fatal(err)
	}
	if !cur.Get(key, "id", into(&got)) || got.A != 2 {
		t.Fatalf("v2 overwrite not served: %+v", got)
	}
	// And the old process now misses in turn — no cross-version serving in
	// either direction.
	if old.Get(key, "id", into(&got)) {
		t.Fatal("entry written under v2 served under v1")
	}
}

func TestMismatchedIdentityIsAMiss(t *testing.T) {
	s := open(t, "v1")
	key := KeyOf("spec-a")
	if err := s.Put(key, "spec-a-identity", payload{A: 1}); err != nil {
		t.Fatal(err)
	}
	// Same key, different identity: the shape a key collision would take.
	var got payload
	if s.Get(key, "spec-b-identity", into(&got)) {
		t.Fatal("entry served under a different identity")
	}
	if st := s.Stats(); st.LoadErrors != 1 {
		t.Fatalf("identity mismatch not counted as a load error: %+v", st)
	}
}

func TestCopiedEnvelopeIsAMiss(t *testing.T) {
	// An entry file copied (or hard-linked) to another key's file name —
	// e.g. by a confused sync tool — must be rejected by the envelope's
	// recorded key even when version and identity line up.
	s := open(t, "v1")
	keyA, keyB := KeyOf("spec-a"), KeyOf("spec-b")
	if err := s.Put(keyA, "shared-id", payload{A: 1}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(s.path(keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(keyB), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if s.Get(keyB, "shared-id", into(&got)) {
		t.Fatal("copied envelope served under the wrong key")
	}
}

func TestConcurrentWritersOneKey(t *testing.T) {
	s := open(t, "v1")
	key := KeyOf("contended")
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Deterministic simulations produce identical content, so every
			// writer stores the same value; any rename may win.
			errs[i] = s.Put(key, "id", payload{A: 7})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	var got payload
	if !s.Get(key, "id", into(&got)) || got.A != 7 {
		t.Fatalf("entry unreadable after concurrent writes: %+v", got)
	}
	// No temp files may survive the races.
	tmps, err := filepath.Glob(filepath.Join(s.Dir(), "put-*.tmp"))
	if err != nil || len(tmps) != 0 {
		t.Fatalf("leftover temp files %v (err %v)", tmps, err)
	}
}

func TestTamperMissingEntryFails(t *testing.T) {
	s := open(t, "v1")
	if err := s.Tamper(KeyOf("absent"), func(b []byte) []byte { return b }); err == nil {
		t.Fatal("Tamper on a missing entry succeeded")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", "v1"); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestWriteErrorIsCountedNotFatal(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: read-only directories are still writable")
	}
	dir := t.TempDir()
	s := open(t, "v1", dir)
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := s.Put(KeyOf("k"), "id", payload{}); err == nil {
		t.Fatal("Put into a read-only directory succeeded")
	}
	if st := s.Stats(); st.WriteErrors != 1 {
		t.Fatalf("write error not counted: %+v", st)
	}
}

func TestEnvelopeBytesAreDeterministic(t *testing.T) {
	// Two stores writing the same value must produce byte-identical files,
	// so concurrent cross-process writers genuinely race on nothing.
	dirA, dirB := t.TempDir(), t.TempDir()
	a, b := open(t, "v1", dirA), open(t, "v1", dirB)
	key := KeyOf("spec")
	if err := a.Put(key, "id", payload{A: 3, C: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(key, "id", payload{A: 3, C: 0.5}); err != nil {
		t.Fatal(err)
	}
	ba, err := os.ReadFile(a.path(key))
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("identical Puts produced different bytes")
	}
}

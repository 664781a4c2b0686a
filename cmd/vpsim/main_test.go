package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func runArgs(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), code
}

var shortWindows = []string{"-warmup", "500", "-measure", "2000"}

// TestTextReport drives the default text path end to end, extended-spec
// echo included.
func TestTextReport(t *testing.T) {
	args := append([]string{"-kernel", "gzip", "-pred", "lvp"}, shortWindows...)
	out, errb, code := runArgs(t, args...)
	if code != 0 {
		t.Fatalf("exited %d: %s", code, errb)
	}
	for _, want := range []string{"kernel      gzip", "lvp (FPC counters, squash recovery)", "IPC", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "config ") {
		t.Errorf("default spec printed an extended-config line:\n%s", out)
	}

	// -counters and -recovery take every spelling the wire takes; an empty
	// value is the default.
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-counters", "FPC", "-recovery", "reissue"}, "lvp (FPC counters, reissue recovery)"},
		{[]string{"-counters", "", "-recovery", ""}, "lvp (baseline counters, squash recovery)"},
	} {
		args := append(append([]string{"-kernel", "gzip", "-pred", "lvp"}, tc.flags...), shortWindows...)
		if out, errb, code := runArgs(t, args...); code != 0 || !strings.Contains(out, tc.want) {
			t.Errorf("%v exited %d (stderr %q), want a report with %q:\n%s", tc.flags, code, errb, tc.want, out)
		}
	}

	args = append([]string{"-kernel", "gzip", "-pred", "vtage", "-width", "4", "-max-hist", "256"}, shortWindows...)
	out, errb, code = runArgs(t, args...)
	if code != 0 {
		t.Fatalf("extended spec exited %d: %s", code, errb)
	}
	if !strings.Contains(out, "width=4") || !strings.Contains(out, "max_hist=256") {
		t.Errorf("extended spec not echoed:\n%s", out)
	}
}

// TestJSONEmitsRecord: -format json emits the stable Record field names.
func TestJSONEmitsRecord(t *testing.T) {
	args := append([]string{"-kernel", "gzip", "-pred", "lvp", "-format", "json"}, shortWindows...)
	out, errb, code := runArgs(t, args...)
	if code != 0 {
		t.Fatalf("exited %d: %s", code, errb)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	for _, key := range []string{"kernel", "predictor", "counters", "recovery", "ipc", "speedup", "fpc_vector"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("record missing field %q: %v", key, rec)
		}
	}
	if rec["kernel"] != "gzip" || rec["predictor"] != "lvp" {
		t.Errorf("wrong record identity: %v", rec)
	}
}

// TestServerFlagMatchesInProcess: the same spec through -server and through
// the in-process backend yields the identical record.
func TestServerFlagMatchesInProcess(t *testing.T) {
	srv, err := repro.NewServer(repro.ServerOptions{Warmup: 500, Measure: 2_000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	base := []string{"-kernel", "art", "-pred", "vtage", "-counters", "fpc", "-format", "json"}
	local, errb, code := runArgs(t, append(base, shortWindows...)...)
	if code != 0 {
		t.Fatalf("local exited %d: %s", code, errb)
	}
	// The remote run carries no window flags: a daemon's windows are its own.
	remote, errb, code := runArgs(t, append(base, "-server", ts.URL)...)
	if code != 0 {
		t.Fatalf("remote exited %d: %s", code, errb)
	}
	if local != remote {
		t.Errorf("backends disagree:\n--- local\n%s--- remote\n%s", local, remote)
	}

	// Explicit window flags alongside -server are refused, not ignored.
	if _, errb, code := runArgs(t, append(append(base, shortWindows...), "-server", ts.URL)...); code != 2 {
		t.Errorf("-server with explicit windows exited %d (stderr %q), want 2", code, errb)
	}
}

// TestBadInvocations covers flag validation and runtime failures. An
// invalid spec is a usage error (exit 2) caught before any session warmup
// is paid, not a runtime failure discovered mid-run.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "bogus"},
		{"-counters", "bogus"},
		{"-recovery", "bogus"},
		{"-bogusflag"},
		{"-kernel", "nope"},
		{"-pred", "lvp", "-max-hist", "256"}, // vtage-only knob
		{"-pred", "vtage", "-fpc-vector", "0,2,nope"},
		{"-pred", "vtage", "-fpc-vector", "1,2,3"}, // wrong arity
		{"-width", "99"},
		{"-server", "http://127.0.0.1:1", "-store-dir", "x"}, // store is local-only
	} {
		if _, _, code := runArgs(t, args...); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", args, code)
		}
	}
	for _, args := range [][]string{
		{"-server", "http://127.0.0.1:1"},
	} {
		if _, errb, code := runArgs(t, args...); code != 1 || !strings.Contains(errb, "vpsim:") {
			t.Errorf("run(%v) exited %d (stderr %q), want 1", args, code, errb)
		}
	}
}

// TestStoreDirPersistsAndReloads: the first run over an empty -store-dir
// persists its records; a second process-equivalent run over the same dir
// prints the identical report.
func TestStoreDirPersistsAndReloads(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-kernel", "gzip", "-pred", "lvp", "-format", "json", "-store-dir", dir}, shortWindows...)
	first, errb, code := runArgs(t, args...)
	if code != 0 {
		t.Fatalf("first run exited %d: %s", code, errb)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("store dir holds %d entries after the run (err %v), want >0", len(entries), err)
	}
	second, errb, code := runArgs(t, args...)
	if code != 0 {
		t.Fatalf("second run exited %d: %s", code, errb)
	}
	if first != second {
		t.Errorf("store-backed rerun changed the record:\n--- first\n%s--- second\n%s", first, second)
	}
}

// TestProgramAndGenWorkloads drives the workload-source flags: a -program
// file (text and binary), the equivalent -gen spelling, and their identity —
// all three must simulate the same content-addressed workload and print
// identical reports.
func TestProgramAndGenWorkloads(t *testing.T) {
	prog, err := repro.GenerateProgram("mixed", 11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	vasm := filepath.Join(dir, "m.vasm")
	bin := filepath.Join(dir, "m.isa")
	if err := writeFile(vasm, repro.DisassembleProgram(prog)); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(bin, prog.Encode()); err != nil {
		t.Fatal(err)
	}

	base := append([]string{"-pred", "stride", "-format", "json"}, shortWindows...)
	var reports []string
	for _, src := range [][]string{
		{"-program", vasm},
		{"-program", bin},
		{"-gen", "mixed:11"},
	} {
		out, errb, code := runArgs(t, append(append([]string{}, base...), src...)...)
		if code != 0 {
			t.Fatalf("%v exited %d: %s", src, code, errb)
		}
		if !strings.Contains(out, repro.ProgramID(prog)) {
			t.Errorf("%v report does not carry the content-addressed id:\n%s", src, out)
		}
		reports = append(reports, out)
	}
	if reports[0] != reports[1] || reports[0] != reports[2] {
		t.Errorf("workload sources disagree:\n%s\n%s\n%s", reports[0], reports[1], reports[2])
	}
}

// TestProgramFlagUsageErrors: conflicting or malformed workload sources are
// usage errors (exit 2) with actionable messages.
func TestProgramFlagUsageErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.vasm")
	if err := writeFile(bad, []byte("frobnicate r1, r2\n")); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-program", bad},
		{"-program", filepath.Join(dir, "missing.vasm")},
		{"-program", bad, "-gen", "mixed:1"},
		{"-kernel", "gzip", "-gen", "mixed:1"},
		{"-gen", "mixed"},      // no seed
		{"-gen", "mixed:x"},    // bad seed
		{"-gen", "nofamily:1"}, // unknown family
	} {
		if _, errb, code := runArgs(t, args...); code != 2 {
			t.Errorf("run(%v) exited %d (stderr %q), want 2", args, code, errb)
		}
	}

	// A program the emulator cannot run is refused with Validate's message,
	// naming the file, before anything simulates.
	unrunnable := filepath.Join(dir, "unrunnable.vasm")
	if err := writeFile(unrunnable, []byte("add r1, -, r2\njmp @0\n")); err != nil {
		t.Fatal(err)
	}
	_, errb, code := runArgs(t, append([]string{"-program", unrunnable, "-pred", "lvp"}, shortWindows...)...)
	if code != 2 || !strings.Contains(errb, unrunnable+": ") || !strings.Contains(errb, "reads Src1, which names no register") {
		t.Errorf("unrunnable program exited %d (stderr %q), want 2 with the file and the validation message", code, errb)
	}
}

// TestProgramUploadsToServer: -program with -server must match the local
// record exactly — the upload happens transparently.
func TestProgramUploadsToServer(t *testing.T) {
	srv, err := repro.NewServer(repro.ServerOptions{Warmup: 500, Measure: 2_000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	prog, err := repro.GenerateProgram("branchy", 5)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "b.vasm")
	if err := writeFile(file, repro.DisassembleProgram(prog)); err != nil {
		t.Fatal(err)
	}
	base := []string{"-program", file, "-pred", "lvp", "-format", "json"}
	local, errb, code := runArgs(t, append(base, shortWindows...)...)
	if code != 0 {
		t.Fatalf("local exited %d: %s", code, errb)
	}
	remote, errb, code := runArgs(t, append(base, "-server", ts.URL)...)
	if code != 0 {
		t.Fatalf("remote exited %d: %s", code, errb)
	}
	if local != remote {
		t.Errorf("backends disagree on the program workload:\n--- local\n%s--- remote\n%s", local, remote)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestListKernels: -list prints every kernel.
func TestListKernels(t *testing.T) {
	out, _, code := runArgs(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if got := len(strings.Fields(out)); got != len(repro.Kernels()) {
		t.Errorf("-list printed %d kernels, want %d", got, len(repro.Kernels()))
	}
}

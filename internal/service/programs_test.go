// Program-ingestion tests: POST /v1/programs in both wire forms, simulation
// by prog: reference, the typed unknown_program error, and the statsz
// program count (DESIGN.md §11).
package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/kernels"
	. "repro/internal/service"
	"repro/internal/service/client"
)

// TestProgramUploadAndSimulate uploads a generated program in both wire
// forms and checks the simulate-by-reference path end to end: the remote
// record must be byte-identical to a direct harness run of the same program
// under the same windows.
func TestProgramUploadAndSimulate(t *testing.T) {
	t.Parallel()
	_, c, _ := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	prog, err := isa.Generate("mixed", 42)
	if err != nil {
		t.Fatal(err)
	}

	// Binary upload.
	info, err := c.UploadProgram(ctx, prog.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != harness.ProgramID(prog) {
		t.Fatalf("upload answered id %q, want %q", info.ID, harness.ProgramID(prog))
	}
	if info.Insts != len(prog.Insts) || info.Name != prog.Name {
		t.Fatalf("upload metadata wrong: %+v", info)
	}

	// The assembly form of the same program is the same identity.
	asmInfo, err := c.UploadAssembly(ctx, "", string(isa.Disassemble(prog)))
	if err != nil {
		t.Fatal(err)
	}
	if asmInfo.ID != info.ID {
		t.Fatalf("assembly upload answered %q, binary answered %q", asmInfo.ID, info.ID)
	}

	// Simulating by reference matches a direct harness run byte for byte.
	rec, err := c.Simulate(ctx, SpecRequest{Program: info.ID, Predictor: "vtage", Counters: "fpc"})
	if err != nil {
		t.Fatal(err)
	}
	se := harness.NewSession(harness.SessionConfig{Warmup: testWarmup, Measure: testMeasure})
	if _, err := se.RegisterProgram(prog); err != nil {
		t.Fatal(err)
	}
	want, err := collect(se, []harness.Spec{{Kernel: info.ID, Predictor: "vtage", Counters: harness.FPC}})
	if err != nil {
		t.Fatal(err)
	}
	if rec != want[0] {
		t.Fatalf("remote record differs from direct run:\n got %+v\nwant %+v", rec, want[0])
	}

	// The registry lists exactly one program, and statsz agrees.
	list, err := c.Programs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("program list = %+v, want just %s", list, info.ID)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Programs != 1 {
		t.Fatalf("statsz programs = %d, want 1", st.Programs)
	}
}

// TestProgramUploadBuiltinDedup pins the identity rule over the wire: a
// byte-identical upload of a builtin kernel answers the builtin's name and
// never enters the registry.
func TestProgramUploadBuiltinDedup(t *testing.T) {
	t.Parallel()
	_, c, _ := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	k, ok := kernels.ByName("mcf")
	if !ok {
		t.Fatal("no builtin mcf")
	}
	info, err := c.UploadProgram(ctx, k.Build().Encode())
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "mcf" {
		t.Fatalf("byte-identical mcf upload answered %q, want the builtin name", info.ID)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Programs != 0 {
		t.Fatalf("builtin-identical upload entered the registry: programs = %d", st.Programs)
	}
}

// TestUnknownProgramTypedError pins the curable error contract: a spec
// naming an unuploaded prog: reference answers 404 with the stable
// unknown_program code (simulate and batch-sync alike), and the message lists
// what IS uploaded once anything is.
func TestUnknownProgramTypedError(t *testing.T) {
	t.Parallel()
	_, c, _ := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	ghost := "prog:" + strings.Repeat("ab", 32)
	_, err := c.Simulate(ctx, SpecRequest{Program: ghost, Predictor: "vtage"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != CodeUnknownProgram {
		t.Fatalf("unknown program error = %v, want 404 %s", err, CodeUnknownProgram)
	}
	if !strings.Contains(apiErr.Msg, "POST /v1/programs") {
		t.Fatalf("error does not explain the cure: %v", apiErr)
	}

	prog, perr := isa.Generate("branchy", 1)
	if perr != nil {
		t.Fatal(perr)
	}
	info, perr := c.UploadProgram(ctx, prog.Encode())
	if perr != nil {
		t.Fatal(perr)
	}
	_, err = c.SimulateBatchSync(ctx, []SpecRequest{{Program: ghost, Predictor: "vtage"}})
	if !errors.As(err, &apiErr) || apiErr.Code != CodeUnknownProgram {
		t.Fatalf("batch-sync unknown program error = %v, want %s", err, CodeUnknownProgram)
	}
	if !strings.Contains(apiErr.Msg, info.ID) {
		t.Fatalf("error does not list uploaded programs: %v", apiErr)
	}
}

// TestProgramUploadRejects pins the 400 paths of POST /v1/programs. The
// malformed bodies are posted raw (the typed client refuses to build them).
func TestProgramUploadRejects(t *testing.T) {
	t.Parallel()
	_, _, ts := newTestServer(t, Options{Workers: 1})

	cases := []struct {
		name string
		req  ProgramRequest
		frag string
	}{
		{"empty", ProgramRequest{}, "empty program request"},
		{"both", ProgramRequest{Encoded: []byte("VPP1junk"), Assembly: "halt"}, "exactly one"},
		{"bad encoding", ProgramRequest{Encoded: []byte("not a program")}, ""},
		{"bad assembly", ProgramRequest{Assembly: "frobnicate r1, r2", Name: "t"}, "unknown"},
	}
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/programs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr APIError
		if jerr := json.NewDecoder(resp.Body).Decode(&apiErr); jerr != nil {
			t.Fatalf("%s: bad error body: %v", tc.name, jerr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, apiErr.Msg)
			continue
		}
		if tc.frag != "" && !strings.Contains(apiErr.Msg, tc.frag) {
			t.Errorf("%s: message %q missing %q", tc.name, apiErr.Msg, tc.frag)
		}
	}
}

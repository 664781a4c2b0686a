package repro

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestProgramBackendEquivalence is the tentpole's acceptance test: a
// generated program registered with both backends must carry one identity
// and simulate byte-identically through LocalRunner and RemoteRunner —
// Simulate and Batch alike.
func TestProgramBackendEquivalence(t *testing.T) {
	local, remote := newBackends(t)
	ctx := context.Background()

	prog, err := GenerateProgram("mixed", 2014)
	if err != nil {
		t.Fatal(err)
	}
	localID, err := local.RegisterProgram(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	remoteID, err := remote.RegisterProgram(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	if localID != remoteID || localID != ProgramID(prog) {
		t.Fatalf("identities diverge: local %q, remote %q, want %q", localID, remoteID, ProgramID(prog))
	}

	specs := []Spec{
		{Program: localID, Predictor: "vtage", Counters: FPC},
		{Program: localID, Predictor: "stride"},
		{Program: localID, Predictor: "none"},
	}
	for _, spec := range specs {
		lrec, err := local.Simulate(ctx, spec)
		if err != nil {
			t.Fatalf("local %s: %v", spec.Predictor, err)
		}
		rrec, err := remote.Simulate(ctx, spec)
		if err != nil {
			t.Fatalf("remote %s: %v", spec.Predictor, err)
		}
		if lrec != rrec {
			t.Fatalf("records diverge for %s:\n local %+v\nremote %+v", spec.Predictor, lrec, rrec)
		}
	}

	var localRecs, remoteRecs []Record
	if err := local.Batch(ctx, specs, func(r Record) error { localRecs = append(localRecs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := remote.Batch(ctx, specs, func(r Record) error { remoteRecs = append(remoteRecs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	for i := range localRecs {
		if localRecs[i] != remoteRecs[i] {
			t.Fatalf("batch record %d diverges:\n local %+v\nremote %+v", i, localRecs[i], remoteRecs[i])
		}
	}
}

// TestRemoteRunnerReuploadsAfterRestart pins the transparent re-upload: a
// daemon restart empties the server-side program registry, and the runner's
// next call must cure the resulting unknown_program error by re-uploading
// and retrying — invisible to the caller.
func TestRemoteRunnerReuploadsAfterRestart(t *testing.T) {
	t.Parallel()
	newDaemon := func() *Server {
		srv, err := NewServer(ServerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	// A swappable handler stands in for "the daemon behind this URL
	// restarted": same address, fresh process state.
	var mu sync.Mutex
	current := newDaemon()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := current
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	remote := OpenRemoteRunner(ts.URL, RunnerOptions{})
	ctx := context.Background()
	prog, err := GenerateProgram("branchy", 99)
	if err != nil {
		t.Fatal(err)
	}
	id, err := remote.RegisterProgram(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Program: id, Predictor: "lvp"}
	before, err := remote.Simulate(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	current = newDaemon() // restart: empty registry, cold memo
	mu.Unlock()

	after, err := remote.Simulate(ctx, spec)
	if err != nil {
		t.Fatalf("post-restart simulate did not self-heal: %v", err)
	}
	if before != after {
		t.Fatalf("records diverge across restart:\nbefore %+v\n after %+v", before, after)
	}

	mu.Lock()
	current = newDaemon() // restart again; heal through Batch this time
	mu.Unlock()
	var got []Record
	if err := remote.Batch(ctx, []Spec{spec}, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("post-restart batch did not self-heal: %v", err)
	}
	if len(got) != 1 || got[0] != before {
		t.Fatalf("batch records diverge across restart: %+v", got)
	}
}

// TestProgramWarmRestartZeroMisses pins the cross-process warm start for
// uploaded programs: a fresh runner over the same store directory must serve
// a previously simulated program spec entirely from disk — zero simulations
// started.
func TestProgramWarmRestartZeroMisses(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ctx := context.Background()
	prog, err := GenerateProgram("memory", 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(id string) Spec { return Spec{Program: id, Predictor: "vtage", Counters: FPC} }

	r1, err := OpenLocalRunner(RunnerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r1.RegisterProgram(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r1.Simulate(ctx, spec(id))
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()

	r2, err := OpenLocalRunner(RunnerOptions{Warmup: runnerWarmup, Measure: runnerMeasure, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.RegisterProgram(ctx, prog); err != nil {
		t.Fatal(err)
	}
	second, err := r2.Simulate(ctx, spec(id))
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("warm restart changed the record:\nfirst  %+v\nsecond %+v", first, second)
	}
	m := r2.MemoStats()
	if m.Misses != 0 || m.StoreHits == 0 {
		t.Fatalf("warm restart re-simulated: %+v", m)
	}
}

// TestRemoteRegisterProgramNeedsNoDaemon: registration names a program the
// same way on every backend without asking a daemon, so a remote
// RegisterProgram fails exactly when a local one does (an ended context, a
// nil or an invalid program), with the same error. Against a dead daemon it
// still returns the program's id, and the first Simulate returns the
// transport error.
func TestRemoteRegisterProgramNeedsNoDaemon(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	remote := OpenRemoteRunner(closed, RunnerOptions{})
	defer remote.Close()
	local := NewLocalRunner(RunnerOptions{Warmup: runnerWarmup, Measure: runnerMeasure})
	ctx := context.Background()

	prog, err := GenerateProgram("memory", 29)
	if err != nil {
		t.Fatal(err)
	}
	id, err := remote.RegisterProgram(ctx, prog)
	if err != nil || id != ProgramID(prog) {
		t.Fatalf("RegisterProgram with no daemon = %q, %v; want %q", id, err, ProgramID(prog))
	}
	_, err = remote.Simulate(ctx, Spec{Program: id, Predictor: "lvp"})
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Errorf("Simulate with no daemon: got %v, want the transport error", err)
	}

	ended, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		p    *Program
	}{
		{"ended context", ended, prog},
		{"nil program", ctx, nil},
		{"invalid program", ctx, &Program{Name: "empty"}},
	} {
		_, lerr := local.RegisterProgram(tc.ctx, tc.p)
		_, rerr := remote.RegisterProgram(tc.ctx, tc.p)
		if lerr == nil || rerr == nil || lerr.Error() != rerr.Error() {
			t.Errorf("%s: local %v, remote %v; want the same error", tc.name, lerr, rerr)
		}
	}
}

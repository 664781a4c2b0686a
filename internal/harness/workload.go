package harness

// Workload sources (DESIGN.md §11): a Spec's workload is either a builtin
// kernel name or a content-addressed program reference "prog:<sha256>" over
// the program's binary encoding. The reference is self-certifying — two
// byte-identical programs get one identity no matter who uploads them, and
// two different programs can never collide, even if both are named "mcf" —
// so memo entries and persisted store records key correctly across
// processes without trusting the program's display name.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// progRefPrefix marks a content-addressed workload reference. No builtin
// kernel name contains a colon, so the namespaces are disjoint.
const progRefPrefix = "prog:"

// IsProgramRef reports whether the workload string is a program reference
// (as opposed to a builtin kernel name).
func IsProgramRef(workload string) bool {
	return strings.HasPrefix(workload, progRefPrefix)
}

// checkProgramRef validates the shape of a program reference: the prefix
// followed by a full lowercase hex sha256.
func checkProgramRef(ref string) error {
	hexpart := strings.TrimPrefix(ref, progRefPrefix)
	if len(hexpart) != sha256.Size*2 {
		return fmt.Errorf("harness: malformed program reference %q: want prog:<64 hex digits>", ref)
	}
	for _, c := range hexpart {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("harness: malformed program reference %q: want prog:<64 lowercase hex digits>", ref)
		}
	}
	return nil
}

// ProgramID returns the content-addressed workload reference for p:
// "prog:" + sha256 of the binary encoding. The encoding covers the name,
// code, data and initial registers, so any observable difference changes
// the identity.
func ProgramID(p *isa.Program) string {
	sum := sha256.Sum256(p.Encode())
	return progRefPrefix + hex.EncodeToString(sum[:])
}

// WorkloadOf names p as every backend does, with no session: the builtin
// kernel's name when p is byte-identical to that builtin (it is the same
// workload, so it shares the builtin's memo entries and store records), and
// its content-addressed "prog:<sha256>" reference otherwise, so a different
// program that merely shares a builtin's name can never collide. enc is p's
// binary encoding. A nil, unencodable or invalid program is an error.
func WorkloadOf(p *isa.Program) (workload string, enc []byte, err error) {
	if p == nil {
		return "", nil, errors.New("harness: RegisterProgram: nil program")
	}
	if err := isa.CheckEncodable(p); err != nil {
		return "", nil, err
	}
	if err := p.Validate(); err != nil {
		return "", nil, fmt.Errorf("harness: invalid program: %w", err)
	}
	enc = p.Encode()
	if k, builtin := kernels.ByName(p.Name); builtin && bytes.Equal(k.Build().Encode(), enc) {
		return p.Name, enc, nil
	}
	sum := sha256.Sum256(enc)
	return progRefPrefix + hex.EncodeToString(sum[:]), enc, nil
}

// RegisterProgram adds p to the session's workload registry and returns the
// workload string to put in Spec.Kernel (or Spec.Program), WorkloadOf's
// name for p. Safe for concurrent use; registering the same program twice
// is an idempotent no-op returning the same reference, and a builtin's
// byte-identical copy registers nothing.
func (se *Session) RegisterProgram(p *isa.Program) (string, error) {
	id, enc, err := WorkloadOf(p)
	if err != nil || !IsProgramRef(id) {
		return id, err
	}
	// Register a private decoded copy: the caller keeps ownership of p and
	// may mutate it afterwards without corrupting the registry.
	cp, err := isa.Decode(enc)
	if err != nil {
		return "", err
	}
	se.mu.Lock()
	if se.progs == nil {
		se.progs = make(map[string]*isa.Program)
	}
	if _, dup := se.progs[id]; !dup {
		se.progs[id] = cp
	}
	se.mu.Unlock()
	return id, nil
}

// Program returns a copy of the registered program for a prog: reference.
// The registry's own program must keep matching its id, so no caller gets
// it: an edit to the copy changes neither what the registry reports nor
// what a later trace runs.
func (se *Session) Program(workload string) (*isa.Program, bool) {
	se.mu.Lock()
	p, ok := se.progs[workload]
	se.mu.Unlock()
	if !ok {
		return nil, false
	}
	cp, err := isa.Decode(p.Encode())
	if err != nil {
		panic(fmt.Sprintf("harness: registered program %s does not round-trip: %v", workload, err))
	}
	return cp, true
}

// HasProgram reports whether a prog: reference is registered, without
// copying the program.
func (se *Session) HasProgram(workload string) bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	_, ok := se.progs[workload]
	return ok
}

// ProgramIDs returns the registered program references in sorted order.
func (se *Session) ProgramIDs() []string {
	se.mu.Lock()
	ids := make([]string, 0, len(se.progs))
	for id := range se.progs {
		ids = append(ids, id)
	}
	se.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// ProgramCount returns the number of registered programs.
func (se *Session) ProgramCount() int {
	se.mu.Lock()
	defer se.mu.Unlock()
	return len(se.progs)
}

// UnknownWorkloadError reports a workload the session cannot resolve. It is
// a distinct type because it is the one simulation error that is *about the
// session*, not the spec: registering the program afterwards fixes it, so
// neither the trace singleflight nor the result memo caches it (unlike real
// simulation errors, which are memoized).
type UnknownWorkloadError struct {
	Workload string
	msg      string
}

func (e *UnknownWorkloadError) Error() string { return e.msg }

// IsUnknownWorkload reports whether err is (or wraps) an UnknownWorkloadError.
func IsUnknownWorkload(err error) bool {
	var u *UnknownWorkloadError
	return errors.As(err, &u)
}

// unknownWorkloadError explains an unresolvable workload in terms the caller
// can act on: the builtin index for kernel names, the session's registered
// references (and how to register one) for prog: references.
func (se *Session) unknownWorkloadError(workload string) error {
	if !IsProgramRef(workload) {
		return &UnknownWorkloadError{Workload: workload, msg: fmt.Sprintf(
			"harness: unknown kernel %q (builtin kernels: %s)",
			workload, strings.Join(kernels.Names(), ", "))}
	}
	ids := se.ProgramIDs()
	if len(ids) == 0 {
		return &UnknownWorkloadError{Workload: workload, msg: fmt.Sprintf(
			"harness: unknown program %q: no programs registered with this session (use RegisterProgram, or POST /v1/programs on a daemon)", workload)}
	}
	return &UnknownWorkloadError{Workload: workload, msg: fmt.Sprintf(
		"harness: unknown program %q (registered: %s)", workload, strings.Join(ids, ", "))}
}

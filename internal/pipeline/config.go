// Package pipeline is the trace-driven cycle-level model of the paper's
// out-of-order superscalar machine (Table 2): an 8-wide, deep (15-cycle
// front-end / 4-cycle back-end) pipeline with a 256-entry ROB, 128-entry IQ,
// 48/48 LQ/SQ, 256/256 physical registers, TAGE branch prediction, store
// sets, a three-level memory hierarchy over DDR3, and — the subject of the
// paper — value prediction in the front-end with validation either by
// squashing at commit or by idealized selective reissue.
//
// The model is trace-driven: the functional emulator supplies the correct
// dynamic path, so branch mispredictions and squashes appear as fetch
// bubbles plus structural refill rather than wrong-path execution
// (DESIGN.md §4 documents the substitution).
package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/dram"
	"repro/internal/mem"
)

// RecoveryMode selects how a used value misprediction is repaired
// (Section 3.1.1 of the paper).
type RecoveryMode int

const (
	// SquashAtCommit flushes the pipeline when the mispredicted µop
	// commits — cheap hardware, expensive recovery.
	SquashAtCommit RecoveryMode = iota
	// SelectiveReissue replays only the dependents of the mispredicted µop
	// with the paper's idealistic 0-cycle repair; value-speculative µops
	// hold their IQ entries until they are validated.
	SelectiveReissue
)

func (m RecoveryMode) String() string {
	if m == SelectiveReissue {
		return "reissue"
	}
	return "squash"
}

// MarshalText implements encoding.TextMarshaler with String's spelling, the
// wire's and the CLIs'.
func (m RecoveryMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler and is the one parser of
// the spelling: "squash" or "reissue", and "" for the default, squash.
func (m *RecoveryMode) UnmarshalText(b []byte) error {
	switch string(b) {
	case "", "squash":
		*m = SquashAtCommit
	case "reissue":
		*m = SelectiveReissue
	default:
		return fmt.Errorf("unknown recovery %q (have squash, reissue)", b)
	}
	return nil
}

// Config is the machine description. DefaultConfig returns Table 2.
type Config struct {
	FetchWidth    int
	TakenPerCyc   int // taken branches fetchable per cycle
	DispatchWidth int
	IssueWidth    int
	RetireWidth   int

	FrontDepth int64 // fetch-to-dispatch latency (paper: 15, "slow front-end")
	BackDepth  int64 // issue-to-commit minimum (paper: 4, "swift back-end")

	ROB, IQ, LQ, SQ int
	IntRegs, FPRegs int

	// Functional unit pools and latencies.
	ALUs       int
	MulDivs    int
	FPUs       int
	FPMulDivs  int
	MemPorts   int
	LatALU     int64
	LatMul     int64
	LatDiv     int64 // unpipelined
	LatFP      int64
	LatFPMul   int64
	LatFPDiv   int64 // unpipelined
	LatForward int64 // store-to-load forwarding

	BTBMissBubble int64 // front-end redirect on a taken-branch BTB miss

	Recovery RecoveryMode

	// PredictLoadsOnly restricts value prediction to load µops — the
	// classic load-value-prediction deployment. The paper predicts every
	// register-producing µop ("we do not try to estimate criticality or
	// focus only on load instructions", §7.2); this switch quantifies the
	// difference.
	PredictLoadsOnly bool

	// Caches and memory.
	L1I, L1D, L2 mem.Config
	DRAM         dram.Config

	LogSSIT int // store sets size
}

// DefaultConfig is the paper's Table 2 machine.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    8,
		TakenPerCyc:   2,
		DispatchWidth: 8,
		IssueWidth:    8,
		RetireWidth:   8,
		FrontDepth:    15,
		BackDepth:     4,
		ROB:           256,
		IQ:            128,
		LQ:            48,
		SQ:            48,
		IntRegs:       256,
		FPRegs:        256,
		ALUs:          8,
		MulDivs:       4,
		FPUs:          8,
		FPMulDivs:     4,
		MemPorts:      4,
		LatALU:        1,
		LatMul:        3,
		LatDiv:        25,
		LatFP:         3,
		LatFPMul:      5,
		LatFPDiv:      10,
		LatForward:    2,
		BTBMissBubble: 5,
		Recovery:      SquashAtCommit,
		L1I:           mem.Config{Name: "L1I", Bytes: 32 << 10, Assoc: 4, Latency: 1, MSHRs: 8},
		L1D:           mem.Config{Name: "L1D", Bytes: 32 << 10, Assoc: 4, Latency: 2, MSHRs: 64},
		L2:            mem.Config{Name: "L2", Bytes: 2 << 20, Assoc: 16, Latency: 12, MSHRs: 64},
		DRAM:          dram.DefaultConfig(),
		LogSSIT:       10,
	}
}

// FormatTable2 renders the simulator configuration in the shape of the
// paper's Table 2.
func (c Config) FormatTable2() string {
	var b strings.Builder
	w := func(section, text string) {
		fmt.Fprintf(&b, "%-10s %s\n", section, text)
	}
	w("Front End", fmt.Sprintf("L1I %d-way %dKB; %d-wide fetch (%d taken branch/cycle); TAGE 1+12 components; 2-way 4K-entry BTB, 32-entry RAS; %d-cycle front-end",
		c.L1I.Assoc, c.L1I.Bytes>>10, c.FetchWidth, c.TakenPerCyc, c.FrontDepth))
	w("Execution", fmt.Sprintf("%d-entry ROB, %d-entry IQ, %d/%d-entry LQ/SQ, %d/%d INT/FP registers; 1K-SSID/LFST Store Sets; %d-issue, %dALU(%dc), %dMulDiv(%dc/%dc*), %dFP(%dc), %dFPMulDiv(%dc/%dc*), %dLd/Str; full bypass; %d-wide retire",
		c.ROB, c.IQ, c.LQ, c.SQ, c.IntRegs, c.FPRegs, c.IssueWidth,
		c.ALUs, c.LatALU, c.MulDivs, c.LatMul, c.LatDiv,
		c.FPUs, c.LatFP, c.FPMulDivs, c.LatFPMul, c.LatFPDiv,
		c.MemPorts, c.RetireWidth))
	w("Caches", fmt.Sprintf("L1D %d-way %dKB, %d cycles, %d MSHRs, %d load ports; unified L2 %d-way %dMB, %d cycles, %d MSHRs, stride prefetcher degree 8; 64B lines, LRU",
		c.L1D.Assoc, c.L1D.Bytes>>10, c.L1D.Latency, c.L1D.MSHRs, c.MemPorts,
		c.L2.Assoc, c.L2.Bytes>>20, c.L2.Latency, c.L2.MSHRs))
	w("Memory", fmt.Sprintf("single channel DDR3-1600 (11-11-11), 2 ranks, 8 banks/rank, 8K row buffer, tREFI 7.8us; min read lat. %d cycles, max %d cycles",
		dram.New(c.DRAM).MinReadLatency(), dram.New(c.DRAM).MaxReadLatency()))
	w("*", "not pipelined")
	return b.String()
}

// Package stats computes workload characterization profiles from dynamic
// µop traces: instruction mix, branch behaviour, memory footprint, and the
// value-locality metrics (last-value and stride predictability) that
// determine which value predictor family can cover a workload. The profiles
// explain the per-kernel results in DESIGN.md §4 and back the Table 3
// substitution argument in DESIGN.md §4.
package stats

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Profile summarizes one dynamic trace.
type Profile struct {
	Uops uint64

	// Instruction mix (fractions of all µops).
	Loads, Stores, Branches, FPOps, IntOps float64

	// Control flow.
	TakenRate    float64 // taken fraction of conditional branches
	StaticPCs    int     // distinct static µops executed
	CallsReturns uint64

	// Memory behaviour.
	FootprintLines int // distinct 64B lines touched by data accesses

	// Value locality over VP-eligible (register-producing) µops:
	// fraction whose result equals the previous result of the same PC
	// (last-value locality) or the previous result plus the previous
	// stride (stride locality). These bound what LVP-like and stride-like
	// predictors can cover.
	Eligible      uint64
	LastValueRate float64
	StrideRate    float64
}

// Compute builds the profile of a trace.
func Compute(trace isa.Trace) Profile {
	var p Profile
	uops := trace.Uops
	p.Uops = uint64(len(uops))
	if len(uops) == 0 {
		return p
	}

	type hist struct {
		last   uint64
		stride int64
		seen   bool
		seen2  bool
	}
	perPC := make(map[uint32]*hist)
	lines := make(map[uint64]struct{})
	var loads, stores, branches, fpops, intops, takenCond, conds, callsRets uint64
	var lastHits, strideHits uint64

	for i := range uops {
		d := &uops[i]
		in := trace.Inst(i)
		switch {
		case isa.IsLoad(in.Op):
			loads++
		case isa.IsStore(in.Op):
			stores++
		}
		cls := isa.ClassOf(in.Op)
		switch cls {
		case isa.ClassFPAlu, isa.ClassFPMul, isa.ClassFPDiv:
			fpops++
		case isa.ClassIntAlu, isa.ClassIntMul, isa.ClassIntDiv:
			intops++
		case isa.ClassCall, isa.ClassRet:
			callsRets++
		}
		if isa.IsControl(in.Op) {
			branches++
			if isa.IsConditional(in.Op) {
				conds++
				if d.Taken() {
					takenCond++
				}
			}
		}
		if isa.IsMem(in.Op) {
			lines[d.Addr/64] = struct{}{}
		}
		if in.HasDest() {
			p.Eligible++
			h := perPC[d.PC()]
			if h == nil {
				h = &hist{}
				perPC[d.PC()] = h
			}
			if h.seen {
				if d.Result == h.last {
					lastHits++
				}
				if h.seen2 && d.Result == h.last+uint64(h.stride) {
					strideHits++
				}
				h.stride = int64(d.Result - h.last)
				h.seen2 = true
			}
			h.last = d.Result
			h.seen = true
		}
	}

	n := float64(len(uops))
	p.Loads = float64(loads) / n
	p.Stores = float64(stores) / n
	p.Branches = float64(branches) / n
	p.FPOps = float64(fpops) / n
	p.IntOps = float64(intops) / n
	if conds > 0 {
		p.TakenRate = float64(takenCond) / float64(conds)
	}
	p.CallsReturns = callsRets
	p.FootprintLines = len(lines)
	pcs := make(map[uint32]struct{})
	for i := range uops {
		pcs[uops[i].PC()] = struct{}{}
	}
	p.StaticPCs = len(pcs)
	if p.Eligible > 0 {
		p.LastValueRate = float64(lastHits) / float64(p.Eligible)
		p.StrideRate = float64(strideHits) / float64(p.Eligible)
	}
	return p
}

// Format renders the profile as a compact block.
func (p Profile) Format(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d uops, %d static PCs\n", name, p.Uops, p.StaticPCs)
	fmt.Fprintf(&b, "  mix: %4.1f%% loads %4.1f%% stores %4.1f%% branches %4.1f%% FP %4.1f%% int\n",
		100*p.Loads, 100*p.Stores, 100*p.Branches, 100*p.FPOps, 100*p.IntOps)
	fmt.Fprintf(&b, "  branches: %4.1f%% taken (cond); %d calls/returns\n", 100*p.TakenRate, p.CallsReturns)
	fmt.Fprintf(&b, "  memory: %d lines (%d KB) touched\n", p.FootprintLines, p.FootprintLines*64/1024)
	fmt.Fprintf(&b, "  value locality: %4.1f%% last-value, %4.1f%% stride (of %d eligible)\n",
		100*p.LastValueRate, 100*p.StrideRate, p.Eligible)
	return b.String()
}

// Row renders the profile as one table row (see Header).
func (p Profile) Row(name string) string {
	return fmt.Sprintf("%-10s %5.1f %5.1f %5.1f %5.1f %7d %8d %7.1f %7.1f",
		name, 100*p.Loads, 100*p.Stores, 100*p.Branches, 100*p.FPOps,
		p.StaticPCs, p.FootprintLines, 100*p.LastValueRate, 100*p.StrideRate)
}

// Header is the column header matching Row.
func Header() string {
	return fmt.Sprintf("%-10s %5s %5s %5s %5s %7s %8s %7s %7s",
		"kernel", "ld%", "st%", "br%", "fp%", "PCs", "lines", "lastv%", "stride%")
}

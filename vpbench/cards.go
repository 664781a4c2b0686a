package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/emu"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// card is the workload profile of one program a workload runs: what its
// simulations spend their time on, from the same trace window the
// simulator sees.
type card struct {
	Program        string  `json:"program"`
	Group          string  `json:"group"`
	Uops           uint64  `json:"uops"`
	Loads          float64 `json:"loads"`
	Stores         float64 `json:"stores"`
	Branches       float64 `json:"branches"`
	FPOps          float64 `json:"fp_ops"`
	IntOps         float64 `json:"int_ops"`
	TakenRate      float64 `json:"taken_rate"`
	FootprintLines int     `json:"footprint_lines"`
	OverL1D        float64 `json:"footprint_over_l1d"`
	OverL2         float64 `json:"footprint_over_l2"`
}

// cacheLines is the modelled L1D and L2 capacity in 64-byte lines, the unit
// stats.Profile counts the footprint in.
func cacheLines() (l1d, l2 int) {
	cfg := pipeline.DefaultConfig()
	return cfg.L1D.Bytes / 64, cfg.L2.Bytes / 64
}

// workloadCards profiles every program the spec set runs over uops µops and
// returns the cards plus each workload's emu.Trace time in seconds (keyed
// by the workload string the spans carry).
func workloadCards(tr *traceCtx, set *specSet, uops int) ([]card, map[string]float64) {
	type prog struct {
		workload string
		p        *isa.Program
	}
	var progs []prog
	seen := make(map[string]bool)
	for _, sp := range set.specs[:set.nFig4] {
		if !seen[sp.Kernel] {
			seen[sp.Kernel] = true
			k, _ := kernels.ByName(sp.Kernel) // fig4 names only builtin kernels
			progs = append(progs, prog{sp.Kernel, k.Build()})
		}
	}
	for _, p := range set.progs {
		progs = append(progs, prog{harness.ProgramID(p), p})
	}
	l1d, l2 := cacheLines()
	traceS := make(map[string]float64, len(progs))
	cards := make([]card, 0, len(progs))
	for _, pr := range progs {
		sp := tr.begin("emu.Trace")
		t0 := time.Now()
		trace := emu.Trace(pr.p, uops)
		traceS[pr.workload] = time.Since(t0).Seconds()
		sp.end()
		sp = tr.begin("stats.Compute")
		p := stats.Compute(trace)
		sp.end()
		cards = append(cards, card{
			Program:        pr.p.Name,
			Group:          set.group[pr.workload],
			Uops:           p.Uops,
			Loads:          p.Loads,
			Stores:         p.Stores,
			Branches:       p.Branches,
			FPOps:          p.FPOps,
			IntOps:         p.IntOps,
			TakenRate:      p.TakenRate,
			FootprintLines: p.FootprintLines,
			OverL1D:        float64(p.FootprintLines) / float64(l1d),
			OverL2:         float64(p.FootprintLines) / float64(l2),
		})
	}
	return cards, traceS
}

// printCards writes one summary line per program group: the mean mix and
// the footprint range against the modelled caches.
func printCards(w io.Writer, workload string, cards []card) {
	l1d, l2 := cacheLines()
	for _, g := range []string{groupFig4, "branchy", "memory", "mixed"} {
		var n int
		var ld, st, br, fp, in float64
		minFp, maxFp := -1, 0
		for _, c := range cards {
			if c.Group != g {
				continue
			}
			n++
			ld, st, br, fp, in = ld+c.Loads, st+c.Stores, br+c.Branches, fp+c.FPOps, in+c.IntOps
			if minFp < 0 || c.FootprintLines < minFp {
				minFp = c.FootprintLines
			}
			maxFp = max(maxFp, c.FootprintLines)
		}
		if n == 0 {
			continue
		}
		k := 100 / float64(n)
		fmt.Fprintf(w, "card %s %s programs=%d loads=%.1f%% stores=%.1f%% branches=%.1f%% fp=%.1f%% int=%.1f%% footprint_lines=%d..%d (L1D %d, L2 %d)\n",
			workload, g, n, ld*k, st*k, br*k, fp*k, in*k, minFp, maxFp, l1d, l2)
	}
}

// Recovery demonstrates the paper's central architectural argument
// (Sections 3.1 and 8.2.4): with weak confidence, the recovery mechanism
// decides whether value prediction pays — squashing at commit loses where
// idealized selective reissue still gains. With FPC confidence the two
// mechanisms converge, so the cheap one (squash at commit, which barely
// touches the out-of-order engine) is the practical choice.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	r, err := repro.OpenLocalRunner(repro.RunnerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	type cell struct {
		counters repro.Counters
		recovery repro.Recovery
		label    string
	}
	cells := []cell{
		{repro.BaselineCounters, repro.SquashAtCommit, "3-bit + squash"},
		{repro.BaselineCounters, repro.SelectiveReissue, "3-bit + reissue"},
		{repro.FPC, repro.SquashAtCommit, "FPC + squash"},
		{repro.FPC, repro.SelectiveReissue, "FPC + reissue"},
	}

	fmt.Println("Misprediction recovery vs confidence (VTAGE, speedup over no-VP)")
	fmt.Printf("%-10s", "kernel")
	for _, c := range cells {
		fmt.Printf(" %16s", c.label)
	}
	fmt.Println()
	for _, k := range []string{"applu", "namd", "gobmk", "art"} {
		fmt.Printf("%-10s", k)
		for _, c := range cells {
			rec, err := r.Simulate(ctx, repro.Spec{
				Kernel:    k,
				Predictor: "vtage",
				Counters:  c.counters,
				Recovery:  c.recovery,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %16.3f", rec.Speedup)
		}
		fmt.Println()
	}
	fmt.Println("\nWith 3-bit counters the squash column loses and the reissue column")
	fmt.Println("doesn't; with FPC both columns match — so commit-time squashing, the")
	fmt.Println("mechanism that leaves the out-of-order engine untouched, suffices.")
}

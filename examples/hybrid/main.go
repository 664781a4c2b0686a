// Hybrid demonstrates Section 7.1.2: computational (2D-Stride) and
// context-based (VTAGE) predictors are complementary — they cover different
// µops, so the symmetric hybrid reaches at least the better component on
// every kernel and increases total coverage.
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

	preds := []string{"stride", "vtage", "vtage+stride"}
	fmt.Println("Hybrid value prediction (FPC, squash-at-commit)")
	fmt.Printf("%-10s", "kernel")
	for _, p := range preds {
		fmt.Printf(" %14s", p)
	}
	fmt.Println(" (speedup / coverage)")
	for _, k := range []string{"parser", "gcc", "art", "wupwise", "h264ref"} {
		fmt.Printf("%-10s", k)
		for _, p := range preds {
			rec, err := r.Simulate(ctx, repro.Spec{
				Kernel:    k,
				Predictor: p,
				Counters:  repro.FPC,
				Recovery:  repro.SquashAtCommit,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %5.2f /%5.1f%%", rec.Speedup, 100*rec.Coverage)
		}
		fmt.Println()
	}
	fmt.Println("\nIf both components are confident they must agree, otherwise no")
	fmt.Println("prediction is made; each trains on every committed value.")
}

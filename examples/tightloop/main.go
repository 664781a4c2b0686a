// Tightloop demonstrates the paper's Section 3.2 motivation: in tight loops
// (here the h264ref SAD kernel), occurrences of the same µop are fetched in
// consecutive cycles, so a practical predictor must deliver back-to-back
// predictions. VTAGE predicts from PC + global branch history only, so it
// handles these µops with multi-cycle table access, while local-value-history
// predictors (FCM) would need a single-cycle critical loop.
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

	fmt.Println("Back-to-back VP-eligible fetches per kernel (Fig. 1 motivation)")
	fmt.Printf("%-10s %10s %14s\n", "kernel", "b2b", "VTAGE speedup")
	for _, k := range []string{"h264ref", "art", "bzip2", "gcc", "gobmk"} {
		rec, err := r.Simulate(ctx, repro.Spec{
			Kernel:    k,
			Predictor: "vtage",
			Counters:  repro.FPC,
			Recovery:  repro.SquashAtCommit,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %9.1f%% %14.3f\n", k, 100*rec.B2BFraction, rec.Speedup)
	}
	fmt.Println("\nµops whose previous occurrence was fetched one cycle earlier can only")
	fmt.Println("be predicted by predictors without a per-PC value recurrence (LVP, VTAGE).")
}

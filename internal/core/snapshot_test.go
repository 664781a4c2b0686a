package core

import (
	"testing"

	"repro/internal/ghist"
)

// TestSpecWindowsSnapshotRoundTrip: the predictors that track in-flight
// occurrences (Stride2D, FCM, PS) keep them in a PC-indexed table grown on
// demand. A snapshot taken with windows live at sparse PCs, restored into
// a fresh instance (a shorter table) and into one with stale windows of
// its own (a longer table), must then predict, train and squash exactly
// like the live instance.
func TestSpecWindowsSnapshotRoundTrip(t *testing.T) {
	for name, mk := range map[string]func(h *ghist.History) Predictor{
		"stride": func(h *ghist.History) Predictor { return NewStride2D(10, FPCBaseline, 3) },
		"fcm":    func(h *ghist.History) Predictor { return NewFCM(4, 10, FPCBaseline, 3) },
		"ps":     func(h *ghist.History) Predictor { return NewPS(10, 10, FPCBaseline, 3, h) },
	} {
		t.Run(name, func(t *testing.T) {
			var hists [3]ghist.History
			live, fresh, stale := mk(&hists[0]), mk(&hists[1]), mk(&hists[2])
			feed := func(p Predictor, pc uint64, v Value, seq uint64) { p.(SpecFeeder).FeedSpec(pc, v, seq) }
			pcs := []uint64{3, 7, 5000, 9000}
			val := func(pc uint64, i int) Value { return Value(pc*7 + uint64(i*i)*8) }

			// Committed history and confidence at every PC, then in-flight
			// occurrences at 3 and 5000 only: 7 and 9000 have drained
			// windows at the snapshot.
			seq := uint64(0)
			for i := 0; i < 40; i++ {
				for _, pc := range pcs {
					var m Meta
					live.Predict(pc, &m)
					m.Seq = seq
					feed(live, pc, val(pc, i), seq)
					live.Train(pc, val(pc, i), &m)
					seq++
				}
			}
			for i := 40; i < 43; i++ {
				for _, pc := range []uint64{3, 5000} {
					feed(live, pc, val(pc, i), seq)
					seq++
				}
			}
			// Stale in-flight windows the restore must empty, one of them
			// past the end of the donor's table.
			feed(stale, 7, 111, 1<<40)
			feed(stale, 20000, 222, 1<<40)

			snap := live.Snapshot()
			fresh.Restore(snap)
			stale.Restore(snap)

			// Drive all three through one predict/feed/squash/train
			// sequence; each prediction must match the live instance's.
			for i := 43; i < 73; i++ {
				for _, pc := range pcs {
					var want Meta
					live.Predict(pc, &want)
					for k, p := range []Predictor{fresh, stale} {
						var got Meta
						p.Predict(pc, &got)
						if got != want {
							t.Fatalf("round %d pc %d: restored instance %d predicted %+v, live %+v", i, pc, k, got, want)
						}
					}
					want.Seq = seq
					for _, p := range []Predictor{live, fresh, stale} {
						feed(p, pc, val(pc, i), seq)
						if i%7 == 6 {
							p.Squash(seq)
						} else {
							m := want
							p.Train(pc, val(pc, i), &m)
						}
					}
					seq++
				}
			}
		})
	}
}

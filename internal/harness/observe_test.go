package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// decodeSpans parses a tracer's NDJSON buffer back into spans.
func decodeSpans(t *testing.T, buf *bytes.Buffer) []obs.Span {
	t.Helper()
	var spans []obs.Span
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var s obs.Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("corrupt trace line %q: %v", line, err)
		}
		spans = append(spans, s)
	}
	return spans
}

// countStages tallies spans by stage.
func countStages(spans []obs.Span) map[string]int {
	m := make(map[string]int)
	for _, s := range spans {
		m[s.Stage]++
	}
	return m
}

// fig4Subset trims the canonical fig4 batch to a few kernels so the e2e
// trace test stays fast while keeping the batch's real shape (baselines
// duplicated across matrix halves, both counter schemes).
func fig4Subset() []Spec {
	keep := map[string]bool{"gzip": true, "art": true, "mcf": true}
	var out []Spec
	for _, sp := range Fig4Specs() {
		if keep[sp.Kernel] {
			out = append(out, sp)
		}
	}
	return out
}

func uniqueCanonical(specs []Spec) int {
	seen := make(map[Spec]bool)
	for _, sp := range specs {
		seen[sp.Canonical()] = true
	}
	return len(seen)
}

// TestObserverE2EColdThenWarm is the issue's acceptance test for the trace
// layer: a fig4 batch over a cold store produces exactly one span-set per
// uncached spec (one admit, one warmup, one measure), and re-running the
// batch in a fresh session over the now-warm store simulates nothing — zero
// warmup/measure spans, every run served by the store tier.
func TestObserverE2EColdThenWarm(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	warmup, measure := testWindows(500, 2_000)
	specs := fig4Subset()
	unique := uniqueCanonical(specs)

	observe := func(se *Session) (*obs.Registry, *bytes.Buffer) {
		reg := obs.NewRegistry()
		var buf bytes.Buffer
		se.Observe(NewObserver(reg, obs.NewTracer(&buf)))
		return reg, &buf
	}
	counter := func(reg *obs.Registry, name string, labels ...string) uint64 {
		if len(labels) == 0 {
			return reg.Counter(name, "").Value()
		}
		return reg.CounterVec(name, "", "tier", "result").With(labels...).Value()
	}

	// Cold: every unique spec simulates and publishes to the store.
	cold := storeSession(t, dir, StoreVersion, warmup, measure)
	coldReg, coldBuf := observe(cold)
	if _, err := cold.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if got := counter(coldReg, "repro_simulations_total"); got != uint64(unique) {
		t.Errorf("cold simulations = %d, want %d (unique specs)", got, unique)
	}
	if got := counter(coldReg, "repro_cache_lookups_total", obs.TierStore, "miss"); got != uint64(unique) {
		t.Errorf("cold store misses = %d, want %d", got, unique)
	}
	spans := decodeSpans(t, coldBuf)
	byRun := make(map[uint64][]obs.Span)
	for _, s := range spans {
		byRun[s.Run] = append(byRun[s.Run], s)
	}
	if len(byRun) != unique {
		t.Errorf("cold trace has %d span-sets, want %d (one per uncached spec)", len(byRun), unique)
	}
	for run, set := range byRun {
		st := countStages(set)
		if st[obs.StageAdmit] != 1 || st[obs.StageWarmup] != 1 || st[obs.StageMeasure] != 1 {
			t.Errorf("run %d stage counts = %v, want one admit/warmup/measure", run, st)
		}
		spec := set[0].Spec
		for _, s := range set {
			if s.Spec != spec {
				t.Errorf("run %d mixes specs %q and %q", run, spec, s.Spec)
			}
		}
	}

	// Warm: a fresh session (fresh memo) over the same store directory.
	warm := storeSession(t, dir, StoreVersion, warmup, measure)
	warmReg, warmBuf := observe(warm)
	if _, err := warm.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if got := counter(warmReg, "repro_simulations_total"); got != 0 {
		t.Errorf("warm simulations = %d, want 0", got)
	}
	if got := counter(warmReg, "repro_cache_lookups_total", obs.TierStore, "hit"); got != uint64(unique) {
		t.Errorf("warm store hits = %d, want %d", got, unique)
	}
	st := countStages(decodeSpans(t, warmBuf))
	if st[obs.StageWarmup] != 0 || st[obs.StageMeasure] != 0 {
		t.Errorf("warm trace has %d warmup / %d measure spans, want 0/0",
			st[obs.StageWarmup], st[obs.StageMeasure])
	}
	if st[obs.StageStore] != unique || st[obs.StagePublish] != unique {
		t.Errorf("warm trace store/publish = %d/%d, want %d each",
			st[obs.StageStore], st[obs.StagePublish], unique)
	}
}

// TestObservedRunsByteIdentical is the record-level differential for
// observation: it pins that observation changes no record. An observed
// session (which times warmup and measure) and an observed, traced session
// must both render records byte-identical to an unobserved session's.
func TestObservedRunsByteIdentical(t *testing.T) {
	t.Parallel()
	warmup, measure := testWindows(5_000, 40_000)
	specs := []Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "vtage", Counters: FPC},
		{Kernel: "art", Predictor: "stride", Counters: BaselineCounters},
	}

	render := func(se *Session) (string, string) {
		t.Helper()
		recs, err := collect(context.Background(), se, specs)
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := WriteJSON(&j, recs); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&c, recs); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}

	plain := NewSession(warmup, measure)
	wantJSON, wantCSV := render(plain)

	observed := NewSession(warmup, measure)
	observed.Observe(NewObserver(obs.NewRegistry(), nil))
	gotJSON, gotCSV := render(observed)
	if gotJSON != wantJSON || gotCSV != wantCSV {
		t.Error("observed session records differ from the unobserved session's")
	}

	traced := NewSession(warmup, measure)
	traced.Observe(NewObserver(obs.NewRegistry(), obs.NewTracer(&bytes.Buffer{})))
	gotJSON, gotCSV = render(traced)
	if gotJSON != wantJSON || gotCSV != wantCSV {
		t.Error("observed+traced session records differ from the unobserved session's")
	}
}

// TestObserverQueueWaitAndCoalesced covers the slot instruments: one
// queue-wait observation per owner (a duplicate joins or hits the memo and
// takes no slot), the coalesced counter mirroring SlotStats.Joined, and the
// busy gauge back at 0 once the batch returns.
func TestObserverQueueWaitAndCoalesced(t *testing.T) {
	t.Parallel()
	warmup, measure := testWindows(500, 2_000)
	se := NewSession(warmup, measure)
	se.UseWorkers(2)
	reg := obs.NewRegistry()
	se.Observe(NewObserver(reg, nil))

	specs := []Spec{
		{Kernel: "gzip", Predictor: "none"},
		{Kernel: "gzip", Predictor: "lvp"},
		{Kernel: "gzip", Predictor: "none"}, // duplicate: memo hit, no slot
	}
	if _, err := se.RunAllCtx(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	qw := reg.Histogram("repro_sched_queue_wait_seconds", "", nil)
	if got, owners := qw.Count(), se.MemoStats().Misses; got != owners || owners != 2 {
		t.Errorf("queue-wait observations = %d for %d owners, want one per owner (2)", got, owners)
	}
	if got := reg.Gauge("repro_sched_busy_workers", "").Value(); got != 0 {
		t.Errorf("repro_sched_busy_workers = %v after the batch returned, want 0", got)
	}
	if got, want := reg.Counter("repro_sched_coalesced_total", "").Value(), se.SlotStats().Joined; got != want {
		t.Errorf("repro_sched_coalesced_total = %d, SlotStats.Joined = %d; want them equal", got, want)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one catalogued metric: its name, unit and which direction is
// an improvement. BENCHMARK.json repeats the catalog with the regression
// bounds; bench_test.go pins the two against each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them, so each is defined
// for each workload's unit of work (README.md, "Metric catalog").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"specs_per_s", "specs/s", "higher"},
	{"call_p50_us", "us", "lower"},
	{"call_p90_us", "us", "lower"},
	{"batch_us_per_spec", "us/spec", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the traced run's metrics, named <module>.<metric>. A
// metric that does not apply to a workload (fleet.* without a fleet, say)
// reads 0 there.
var perLayer = []metricDef{
	{"emu.trace_s", "s", "lower"},
	{"emu.cpu_frac", "fraction", "lower"},

	{"pipeline.warmup_s", "s", "lower"},
	{"pipeline.measure_s", "s", "lower"},
	{"pipeline.ns_per_uop", "ns/uop", "lower"},
	{"pipeline.ns_per_uop.fig4", "ns/uop", "lower"},
	{"pipeline.ns_per_uop.branchy", "ns/uop", "lower"},
	{"pipeline.ns_per_uop.memory", "ns/uop", "lower"},
	{"pipeline.ns_per_uop.mixed", "ns/uop", "lower"},
	{"pipeline.cpu_frac.fetch", "fraction", "lower"},
	{"pipeline.cpu_frac.dispatch", "fraction", "lower"},
	{"pipeline.cpu_frac.issue", "fraction", "lower"},
	{"pipeline.cpu_frac.writeback", "fraction", "lower"},
	{"pipeline.cpu_frac.commit", "fraction", "lower"},
	{"pipeline.cpu_frac.skip", "fraction", "lower"},
	{"pipeline.cpu_frac.other", "fraction", "lower"},
	{"core.cpu_frac", "fraction", "lower"},
	{"bpred.cpu_frac", "fraction", "lower"},
	{"mem.cpu_frac", "fraction", "lower"},
	{"memdep.cpu_frac", "fraction", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"service.cpu_frac", "fraction", "lower"},
	{"codec.cpu_frac", "fraction", "lower"},
	{"net.cpu_frac", "fraction", "lower"},

	{"model.sim_cycles", "cycles", "lower"},
	{"model.committed_uops", "uops", "higher"},
	{"model.ipc_geomean", "uops/cycle", "higher"},
	{"model.speedup_geomean", "ratio", "higher"},
	{"model.coverage_mean", "fraction", "higher"},
	{"model.accuracy_mean", "fraction", "higher"},
	{"model.squash_value", "count", "lower"},

	{"harness.simulations", "count", "lower"},
	{"harness.memo_hits", "count", "higher"},
	{"harness.store_hits", "count", "higher"},
	{"harness.admit_us", "us", "lower"},
	{"harness.publish_us", "us", "lower"},
	{"harness.busy_frac", "fraction", "higher"},
	{"harness.residual_s", "s", "lower"},
	{"harness.residual_frac", "fraction", "lower"},

	{"store.read_us", "us", "lower"},
	{"store.write_us", "us", "lower"},
	{"store.hits", "count", "higher"},
	{"store.misses", "count", "lower"},
	{"store.load_errors", "count", "lower"},
	{"store.bytes_per_record", "bytes", "lower"},

	{"wirejson.record_encode_ns", "ns", "lower"},
	{"wirejson.record_decode_ns", "ns", "lower"},

	{"service.simulate_handler_us", "us", "lower"},
	{"service.batch_handler_us", "us", "lower"},
	{"service.stream_us", "us", "lower"},
	{"service.batch_sync_us", "us", "lower"},
	{"service.sched_queue_wait_us", "us", "lower"},
	{"service.coalesced", "count", "higher"},
	{"service.jobs", "count", "lower"},
	{"service.http_errors", "count", "lower"},
	{"service.wire_us", "us", "lower"},

	{"repro.dispatch_us", "us", "lower"},

	{"fleet.simulations", "count", "lower"},
	{"fleet.unique_specs", "count", "lower"},
	{"fleet.dup_sim_frac", "fraction", "lower"},
	{"fleet.shard_sims.0", "count", "lower"},
	{"fleet.shard_sims.1", "count", "lower"},
	{"fleet.shard_sims_max_over_min", "ratio", "lower"},
	{"fleet.shard_busy_max_s", "s", "lower"},
	{"fleet.shard_idle_frac", "fraction", "lower"},
	{"fleet.frames", "count", "lower"},

	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},

	{"trace.overhead_frac", "fraction", "lower"},
}

// benchmarkFile is BENCHMARK.json at the repository root: the workload list,
// the metric catalog and the regression bounds.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// bounds maps each end-to-end metric to its regression bound.
func (b *benchmarkFile) bounds() map[string]float64 {
	out := make(map[string]float64, len(b.EndToEnd))
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

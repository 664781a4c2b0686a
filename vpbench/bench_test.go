package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFleetPort keeps the tests' shards off the ports a benchmark run uses.
const testFleetPort = 47150

// tinyConfig sizes a run for tests: short windows, one setup, fixed
// samples. Golden digests do not apply to these windows; the runs still
// check that samples agree and that the fleet matches a local run.
func tinyConfig(t *testing.T, workload string, samples int, trace bool) *config {
	c := defaultConfig()
	c.workload = workload
	c.warmup, c.measure = 500, 2000
	c.samples = samples
	c.seconds = 0.2 * float64(samples)
	c.trace = trace
	c.outDir = t.TempDir()
	c.fleetPort = testFleetPort
	c.setupReps = 1
	c.passes = 2
	return c
}

func runTiny(t *testing.T, c *config) *runResult {
	t.Helper()
	var log bytes.Buffer
	res, err := runOne(context.Background(), c, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", c.workload, err, log.String())
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloads runs every workload at tiny windows, untraced with two
// samples and traced with one, and checks the outputs and the metric set.
func TestWorkloads(t *testing.T) {
	digests := make(map[string]string)
	for _, d := range workloadDefs {
		t.Run(d.name, func(t *testing.T) {
			res := runTiny(t, tinyConfig(t, d.name, 2, false))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d problems=%v",
					res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			for _, m := range endToEnd {
				dist, ok := res.EndToEnd[m.Name]
				if !ok || dist.Unit != m.Unit {
					t.Errorf("end-to-end %s: emitted=%v unit %q, want %q", m.Name, ok, dist.Unit, m.Unit)
				}
				if dist.Median <= 0 || dist.N == 0 {
					t.Errorf("end-to-end %s = %v over %d samples; every end-to-end metric must be positive", m.Name, dist.Median, dist.N)
				}
			}
			if len(res.Cards) == 0 {
				t.Error("no workload cards")
			}
			digests[d.name] = res.Digest

			traced := runTiny(t, tinyConfig(t, d.name, 1, true))
			if !traced.Correct {
				t.Fatalf("traced run failed: %v", traced.Problems)
			}
			vals := traced.metricValues()
			for _, m := range perLayer {
				v, ok := vals[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
					t.Errorf("per-layer %s: emitted=%v %+v, want unit %q", m.Name, ok, v, m.Unit)
				}
			}
			if traced.Ledger == nil {
				t.Error("traced run has no ledger")
			}
		})
	}
	// Sample agreement is checked inside each run (a differing sample fails
	// it); across backends the fleet must deliver exactly the local records.
	if digests["sweep-cold"] == "" || digests["sweep-cold"] != digests["fleet-cold"] {
		t.Errorf("fleet-cold digest %q != sweep-cold digest %q", digests["fleet-cold"], digests["sweep-cold"])
	}
	if digests["sweep-cold"] != digests["store-warm"] {
		t.Errorf("store-warm digest %q != sweep-cold digest %q", digests["store-warm"], digests["sweep-cold"])
	}
}

// TestCorruptExpectedDigestFails pins the output check: a wrong expected
// digest fails every operation of the run.
func TestCorruptExpectedDigestFails(t *testing.T) {
	c := tinyConfig(t, "sweep-cold", 1, false)
	c.expect = &expected{fig4: strings.Repeat("0", 64)}
	res := runTiny(t, c)
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every op failed", res.Correct, res.Attempted, res.Failed)
	}
}

// TestCatalogMatchesBenchmarkJSON holds BENCHMARK.json and the metric
// catalog here to each other, and both to the naming and size limits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) == 0 || len(bf.Workloads) > 8 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics exceed the limits",
			len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer))
	}
	if len(bf.Paths) != 1 || len(bf.Command) != 2 || bf.Command[0] != "bash" ||
		!strings.HasPrefix(bf.Command[1], bf.Paths[0]+"/") || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("command %q, paths %q, run_seconds %d: want the build script under the benchmark's one path", bf.Command, bf.Paths, bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloadDefs))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, benchmark %q/%q", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, defs []metricDef, name, unit, better string) {
		d, ok := defByName(defs, name)
		if !ok || d.Unit != unit || d.Better != better {
			t.Errorf("%s %s: BENCHMARK.json unit %q better %q, catalog %+v (found %v)", kind, name, unit, better, d, ok)
		}
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s %s: bad or duplicate name", kind, name)
		}
		seen[name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the catalog %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	largest := 0.0
	for _, m := range bf.EndToEnd {
		check("end-to-end", endToEnd, m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	if b := bf.bounds()["setup_s"]; b != largest {
		t.Errorf("setup_s bound %v is not the largest (%v)", b, largest)
	}
	for _, m := range bf.PerLayer {
		check("per-layer", perLayer, m.Name, m.Unit, m.Better)
	}
}

// TestCLI drives the command line: the result line's shape at the default
// windows (golden digests included), and -compare over two result files.
func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the sweep set at full windows")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-workload", "sweep-cold", "-samples", "1", "-seconds", "1", "-out", dir}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var final map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(final) != 4 || final["correct"] == nil || final["attempted"] == nil || final["failed"] == nil || final["metrics"] == nil {
		t.Fatalf("result line keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(final["metrics"], &metrics); err != nil || len(metrics) != len(endToEnd) {
		t.Fatalf("metrics %v (%v), want the %d end-to-end metrics", metrics, err, len(endToEnd))
	}

	file := resultPath(dir, "sweep-cold", false)
	out.Reset()
	code = run(context.Background(), []string{"-benchmark", filepath.Join("..", "BENCHMARK.json"), "-compare", file, file}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "specs_per_s") || strings.Contains(out.String(), "worse") {
		t.Fatalf("compare exit %d:\n%s%s", code, out.String(), errb.String())
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-seconds", "0"},
		{"extra"},
		{"-compare", "a.json"},
	} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "nope", "-samples", "1"}, &out, &errb); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25}, // quantiles(range(1, 11))
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{"specs_per_s", "specs/s", "higher"}
	lower := metricDef{"call_p50_us", "us", "lower"}
	steady := func(v float64) dist { return newDist("", []float64{v * 0.99, v, v * 1.01}) }
	for _, tc := range []struct {
		d    metricDef
		p, c dist
		want string
	}{
		{higher, steady(100), steady(100), "unchanged"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(95), "better"},
		{higher, newDist("", []float64{50, 100, 150}), steady(100), "unresolved"},
		{higher, newDist("", []float64{50, 100, 150}), steady(200), "better"},
	} {
		if got := verdict(tc.d, 0.1, tc.p, tc.c); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.p.Samples, tc.c.Samples, got, tc.want)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	text := `File: vpbench
Showing nodes accounting for 300ms, 100% of 300ms total
      flat  flat%   sum%        cum   cum%
     100ms 33.33% 33.33%      200ms 66.67%  repro/internal/pipeline.(*Sim).issue
      50ms 16.67% 50.00%       50ms 16.67%  repro/internal/pipeline.(*Sim).srcStatus (inline)
      50ms 16.67% 66.67%       50ms 16.67%  repro/internal/pipeline.(*Sim).srcStatus
     100ms 33.33%   100%      100ms 33.33%  runtime.gcBgMarkWorker
`
	top, err := parsePprofTop(text)
	if err != nil {
		t.Fatal(err)
	}
	issue := top.flatFrac(func(fn string) bool { s, ok := pipelineStage(fn); return ok && s == "issue" })
	if top.totalMs != 300 || math.Abs(issue-2.0/3) > 1e-12 || top.cumFrac("runtime.gcBgMarkWorker") != 1.0/3 {
		t.Errorf("total %v, issue share %v, gc share %v", top.totalMs, issue, top.cumFrac("runtime.gcBgMarkWorker"))
	}
}

func TestSelfSeconds(t *testing.T) {
	spans := []benchSpan{
		{ID: 1, Name: "sample", Start: 0, End: 10e9},
		{ID: 2, Parent: 1, Name: "call", Start: 1e9, End: 4e9},
		{ID: 3, Parent: 1, Name: "call", Start: 3e9, End: 6e9}, // overlaps the first call
	}
	self := selfSeconds(spans)
	if self["sample"] != 5 || self["call"] != 6 {
		t.Errorf("self times %v, want sample 5s, call 6s", self)
	}
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

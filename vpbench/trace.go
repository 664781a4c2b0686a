package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// benchSpan is one span the benchmark records around a call into a layer.
// Spans of one operation share Op; Parent links a span to the one that
// caused it. Times are nanoseconds since the recorder started.
type benchSpan struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRec holds bench spans in memory until the run ends. A nil *spanRec
// records nothing, so untraced samples pay one nil check per call.
type spanRec struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []benchSpan
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// span is an open bench span; the zero value is a no-op.
type span struct {
	r              *spanRec
	id, parent, op uint64
	name           string
	start          time.Time
}

// begin opens a span under parent (the zero span for a root).
func (r *spanRec) begin(name string, parent span) span {
	if r == nil {
		return span{}
	}
	id := r.next.Add(1)
	op := parent.op
	if op == 0 {
		op = id
	}
	return span{r: r, id: id, parent: parent.id, op: op, name: name, start: time.Now()}
}

func (s span) end() {
	if s.r == nil {
		return
	}
	bs := benchSpan{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: s.start.Sub(s.r.t0).Nanoseconds(),
		End:   time.Since(s.r.t0).Nanoseconds(),
	}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, bs)
	s.r.mu.Unlock()
}

func (r *spanRec) all() []benchSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// selfSeconds sums each span name's self time: its duration minus the part
// of its interval that its children cover.
func selfSeconds(spans []benchSpan) map[string]float64 {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := int64(0)
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		cur := [2]int64{-1, -1}
		for _, c := range iv {
			c[0], c[1] = max(c[0], s.Start), min(c[1], s.End)
			switch {
			case c[1] <= c[0]:
			case c[0] > cur[1]:
				if cur[1] > cur[0] {
					covered += cur[1] - cur[0]
				}
				cur = c
			default:
				cur[1] = max(cur[1], c[1])
			}
		}
		if cur[1] > cur[0] {
			covered += cur[1] - cur[0]
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// lineSink collects the NDJSON spans a program tracer writes (the
// TraceWriter of a runner or server), in memory.
type lineSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *lineSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *lineSink) reset() {
	s.mu.Lock()
	s.buf.Reset()
	s.mu.Unlock()
}

// spans decodes the collected lines.
func (s *lineSink) spans() ([]obs.Span, error) {
	s.mu.Lock()
	data := slices.Clone(s.buf.Bytes())
	s.mu.Unlock()
	var out []obs.Span
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return nil, fmt.Errorf("program span: %w", err)
		}
		out = append(out, sp)
	}
	return out, sc.Err()
}

// promSample is one line of a registry's Prometheus exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// prom is a parsed exposition keyed by series (name plus labels).
type prom map[string]promSample

// scrape renders the registries and parses them, adding up series that
// appear in several (one registry per fleet shard).
func scrape(regs ...*obs.Registry) prom {
	out := make(prom)
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		var b strings.Builder
		reg.WritePrometheus(&b) // a strings.Builder cannot fail
		for _, line := range strings.Split(b.String(), "\n") {
			key, s, ok := parsePromLine(line)
			if !ok {
				continue
			}
			if prev, dup := out[key]; dup {
				s.value += prev.value
			}
			out[key] = s
		}
	}
	return out
}

func parsePromLine(line string) (string, promSample, bool) {
	if line == "" || line[0] == '#' {
		return "", promSample{}, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", promSample{}, false
	}
	key, val := line[:sp], line[sp+1:]
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return "", promSample{}, false
	}
	s := promSample{name: key, labels: map[string]string{}, value: v}
	if i := strings.IndexByte(key, '{'); i >= 0 {
		s.name = key[:i]
		for _, kv := range splitLabels(strings.TrimSuffix(key[i+1:], "}")) {
			k, v, _ := strings.Cut(kv, "=")
			s.labels[k] = strings.Trim(v, `"`)
		}
	}
	return key, s, true
}

// splitLabels splits `a="x",b="y"` on the commas outside quotes. The
// registries here carry no escaped quotes in label values.
func splitLabels(s string) []string {
	var out []string
	inQ, start := false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQ = !inQ
		case ',':
			if !inQ {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// minus returns p - q series by series.
func (p prom) minus(q prom) prom {
	out := make(prom, len(p))
	for k, s := range p {
		s.value -= q[k].value
		out[k] = s
	}
	return out
}

// sum adds the values of name's series whose labels include match.
func (p prom) sum(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}

// histMeanUs is the mean of a seconds histogram's observations, in µs.
func (p prom) histMeanUs(name string, match map[string]string) float64 {
	n := p.sum(name+"_count", match)
	if n == 0 {
		return 0
	}
	return p.sum(name+"_sum", match) / n * 1e6
}

// profTop is `go tool pprof -top` parsed: flat and cumulative milliseconds
// per function.
type profTop struct {
	totalMs   float64
	flat, cum map[string]float64
}

// pprofTop runs `go tool pprof -top` over a CPU profile and parses it. The
// go command is the toolchain the benchmark was built with.
func pprofTop(ctx context.Context, profile string) (profTop, string, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-unit=ms", profile)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return profTop{}, "", fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	t, err := parsePprofTop(out.String())
	return t, out.String(), err
}

func parsePprofTop(text string) (profTop, error) {
	t := profTop{flat: map[string]float64{}, cum: map[string]float64{}}
	rows := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err1 := parseMs(f[0])
		cum, err2 := parseMs(f[3])
		if err1 != nil || err2 != nil {
			return t, fmt.Errorf("pprof row %q: bad value", line)
		}
		// An inlined copy of a function is its own row; fold it into the
		// function.
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		t.flat[name] += flat
		t.cum[name] = max(t.cum[name], cum)
		t.totalMs += flat
	}
	if !rows {
		return t, fmt.Errorf("pprof output has no rows")
	}
	return t, nil
}

func parseMs(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// flatFrac is the share of all CPU samples whose leaf function satisfies in.
func (t profTop) flatFrac(in func(fn string) bool) float64 {
	if t.totalMs == 0 {
		return 0
	}
	sum := 0.0
	for fn, ms := range t.flat {
		if in(fn) {
			sum += ms
		}
	}
	return sum / t.totalMs
}

func (t profTop) cumFrac(fns ...string) float64 {
	if t.totalMs == 0 {
		return 0
	}
	sum := 0.0
	for _, fn := range fns {
		sum += t.cum[fn]
	}
	return sum / t.totalMs
}

// pipelineStage maps a function of the simulator's pipeline package to the
// stage it belongs to: the stage's own method and the helpers only it calls.
// Everything else in the package (the cycle loop, predictor dispatch,
// squash handling, small inlined helpers) is "other".
func pipelineStage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "repro/internal/pipeline.")
	if !ok {
		if strings.HasPrefix(fn, "repro/internal/regfile.") {
			return "other", true
		}
		return "", false
	}
	rest = strings.TrimPrefix(rest, "(*Sim).")
	name, _, _ := strings.Cut(rest, ".")
	switch name {
	case "fetch", "fetchControl":
		return "fetch", true
	case "dispatch", "stall":
		return "dispatch", true
	case "issue", "srcStatus", "readyBound", "loadLatency", "freeUnit", "blockUnitEvent",
		"findInFlightStore", "prevSlot", "releaseValidatedIQ", "depValidated":
		return "issue", true
	case "writeback", "findViolatingLoad", "reissueDependents", "consumedStale":
		return "writeback", true
	case "commit":
		return "commit", true
	case "maybeSkipIdle", "nextEventCycle":
		return "skip", true
	}
	return "other", true
}

func hasAnyPrefix(fn string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

package main

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// ledgerTolerance is how far the unexplained share of the workers' time may
// go before the ledger is reported as not closing.
const ledgerTolerance = 0.10

// ledger accounts the traced sample's worker time: trace generation, warmup
// and measure phases, and the residual nothing in the trace explains
// (scheduling, record flattening, admission, tail idle).
type ledger struct {
	Workers      int     `json:"workers"`
	WallS        float64 `json:"wall_s"`
	TraceS       float64 `json:"trace_s"`
	WarmupS      float64 `json:"warmup_s"`
	MeasureS     float64 `json:"measure_s"`
	ResidualS    float64 `json:"residual_s"`
	ResidualFrac float64 `json:"residual_frac"`
	Tolerance    float64 `json:"tolerance"`
	Closes       bool    `json:"closes"`
}

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	cfg        *config
	set        *specSet
	data       *layerData
	wall       time.Duration // traced sample
	untraced   float64       // median untraced sample wall, s
	top        profTop
	traceS     map[string]float64 // emu.Trace seconds per workload
	mem0, mem1 runtime.MemStats
	encNs      float64
	decNs      float64
}

// layerMetrics computes every per-layer metric of the catalog; metrics a
// workload's layers do not exercise read 0.
func layerMetrics(in layerInput) (map[string]float64, *ledger) {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	l := in.data
	wall := in.wall.Seconds()
	uops := float64(in.cfg.warmup + in.cfg.measure)

	// Program spans: simulation phases per group and per shard.
	type phases struct{ secs, sims float64 }
	groups := make(map[string]*phases)
	var warmS, measS, traceS float64
	var sims int
	var admit, publish, reads []float64
	busy := make([]float64, len(l.shardSpans))
	for i, spans := range l.shardSpans {
		simulated := make(map[string]bool)
		for _, s := range spans {
			d := float64(s.DurNS) / 1e9
			wl := workloadOf(s.Spec)
			g := groups[in.set.group[wl]]
			if g == nil {
				g = &phases{}
				groups[in.set.group[wl]] = g
			}
			switch s.Stage {
			case obs.StageWarmup:
				warmS += d
				g.secs += d
				busy[i] += d
			case obs.StageMeasure:
				measS += d
				g.secs += d
				g.sims++
				sims++
				busy[i] += d
				simulated[wl] = true
			case obs.StageAdmit:
				admit = append(admit, d*1e6)
			case obs.StagePublish:
				publish = append(publish, d*1e6)
			case obs.StageStore:
				reads = append(reads, d*1e6)
			}
		}
		for wl := range simulated {
			traceS += in.traceS[wl]
			busy[i] += in.traceS[wl]
		}
	}
	m["emu.trace_s"] = traceS
	m["pipeline.warmup_s"] = warmS
	m["pipeline.measure_s"] = measS
	if sims > 0 {
		m["pipeline.ns_per_uop"] = (warmS + measS) * 1e9 / (float64(sims) * uops)
	}
	for name, g := range groups {
		if g.sims > 0 && name != "" {
			m["pipeline.ns_per_uop."+name] = g.secs * 1e9 / (g.sims * uops)
		}
	}

	capacity := float64(l.workers) * wall
	led := &ledger{
		Workers: l.workers, WallS: wall, TraceS: traceS, WarmupS: warmS, MeasureS: measS,
		ResidualS: capacity - traceS - warmS - measS, Tolerance: ledgerTolerance,
	}
	if capacity > 0 {
		led.ResidualFrac = led.ResidualS / capacity
		m["harness.busy_frac"] = 1 - led.ResidualFrac
	}
	led.Closes = math.Abs(led.ResidualFrac) <= ledgerTolerance
	m["harness.residual_s"] = led.ResidualS
	m["harness.residual_frac"] = led.ResidualFrac
	m["harness.simulations"] = float64(l.memo.Misses)
	m["harness.memo_hits"] = float64(l.memo.Hits)
	m["harness.store_hits"] = float64(l.memo.StoreHits)
	m["harness.admit_us"] = mean(admit)
	m["harness.publish_us"] = mean(publish)

	// CPU profile of the traced sample, grouped by function prefix.
	t := in.top
	for _, stage := range []string{"fetch", "dispatch", "issue", "writeback", "commit", "skip", "other"} {
		m["pipeline.cpu_frac."+stage] = t.flatFrac(func(fn string) bool {
			s, ok := pipelineStage(fn)
			return ok && s == stage
		})
	}
	prefixFrac := func(prefixes ...string) float64 {
		return t.flatFrac(func(fn string) bool { return hasAnyPrefix(fn, prefixes...) })
	}
	m["emu.cpu_frac"] = prefixFrac("repro/internal/emu.")
	m["core.cpu_frac"] = prefixFrac("repro/internal/core.")
	m["bpred.cpu_frac"] = prefixFrac("repro/internal/bpred.", "repro/internal/ghist.")
	m["mem.cpu_frac"] = prefixFrac("repro/internal/mem.", "repro/internal/dram.")
	m["memdep.cpu_frac"] = prefixFrac("repro/internal/memdep.")
	m["runtime.gc_cpu_frac"] = t.cumFrac("runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep")
	m["codec.cpu_frac"] = t.flatFrac(isCodec)
	m["service.cpu_frac"] = t.flatFrac(func(fn string) bool {
		return hasAnyPrefix(fn, "repro/internal/service", "repro/internal/fleet.") && !isCodec(fn)
	})
	m["net.cpu_frac"] = prefixFrac("net/", "net.", "internal/poll.", "syscall.", "bufio.")

	// The model's own results: deterministic for a given seed and windows.
	var logIPC, logSp, cov, acc float64
	var nVP int
	for _, r := range l.records {
		m["model.sim_cycles"] += float64(r.Cycles)
		m["model.committed_uops"] += float64(r.Committed)
		m["model.squash_value"] += float64(r.SquashValue)
		logIPC += math.Log(r.IPC)
		if r.Predictor != "none" {
			nVP++
			logSp += math.Log(r.Speedup)
			cov += r.Coverage
			acc += r.Accuracy
		}
	}
	if n := len(l.records); n > 0 {
		m["model.ipc_geomean"] = math.Exp(logIPC / float64(n))
	}
	if nVP > 0 {
		m["model.speedup_geomean"] = math.Exp(logSp / float64(nVP))
		m["model.coverage_mean"] = cov / float64(nVP)
		m["model.accuracy_mean"] = acc / float64(nVP)
	}

	m["store.read_us"] = mean(reads)
	var writes []float64
	for _, s := range l.setupSpans {
		if s.Stage == obs.StagePublish && s.Tier == obs.TierStore {
			writes = append(writes, float64(s.DurNS)/1e3)
		}
	}
	m["store.write_us"] = mean(writes)
	m["store.hits"] = float64(l.memo.Store.Hits)
	m["store.misses"] = float64(l.memo.Store.Misses)
	m["store.load_errors"] = float64(l.memo.Store.LoadErrors)
	m["store.bytes_per_record"] = l.storeBytes

	m["wirejson.record_encode_ns"] = in.encNs
	m["wirejson.record_decode_ns"] = in.decNs

	p := l.prom
	endpoint := func(e string) map[string]string { return map[string]string{"endpoint": e} }
	m["service.simulate_handler_us"] = p.histMeanUs("repro_http_request_seconds", endpoint("simulate"))
	m["service.batch_handler_us"] = p.histMeanUs("repro_http_request_seconds", endpoint("batch"))
	m["service.stream_us"] = p.histMeanUs("repro_http_request_seconds", endpoint("stream"))
	m["service.batch_sync_us"] = p.histMeanUs("repro_http_request_seconds", endpoint("batch_sync"))
	m["service.sched_queue_wait_us"] = p.histMeanUs("repro_sched_queue_wait_seconds", nil)
	m["service.coalesced"] = p.sum("repro_sched_coalesced_total", nil)
	m["service.jobs"] = p.sum("repro_jobs_total", map[string]string{"state": "queued"})
	for _, s := range p {
		if s.name == "repro_http_requests_total" {
			if code, err := strconv.Atoi(s.labels["code"]); err == nil && code >= 400 {
				m["service.http_errors"] += s.value
			}
		}
	}
	if c := mean(l.clientSim); c > 0 && m["service.simulate_handler_us"] > 0 {
		m["service.wire_us"] = c - m["service.simulate_handler_us"]
	}
	m["repro.dispatch_us"] = l.client.histMeanUs("repro_dispatch_seconds", nil)

	if l.fleet {
		var total float64
		lo, hi := math.Inf(1), 0.0
		for i, n := range l.split {
			v := float64(n)
			total += v
			lo, hi = min(lo, v), max(hi, v)
			m["fleet.shard_sims."+strconv.Itoa(i)] = v
		}
		m["fleet.simulations"] = total
		m["fleet.unique_specs"] = float64(l.unique)
		if l.unique > 0 {
			m["fleet.dup_sim_frac"] = (total - float64(l.unique)) / float64(l.unique)
		}
		if lo > 0 {
			m["fleet.shard_sims_max_over_min"] = hi / lo
		}
		var sum, top float64
		for _, b := range busy {
			sum += b
			top = max(top, b)
		}
		m["fleet.shard_busy_max_s"] = top
		if wall > 0 && len(busy) > 0 {
			// One worker per shard, so shard capacity is shards × wall.
			m["fleet.shard_idle_frac"] = 1 - sum/(float64(len(busy))*wall)
		}
		m["fleet.frames"] = p.sum("repro_http_requests_total", endpoint("batch_sync"))
	}

	m["runtime.alloc_mb"] = float64(in.mem1.TotalAlloc-in.mem0.TotalAlloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(in.mem1.NumGC - in.mem0.NumGC)
	if in.untraced > 0 {
		m["trace.overhead_frac"] = wall/in.untraced - 1
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
	return m, led
}

// isCodec reports whether fn is JSON encoding or decoding: encoding/json,
// the hand-rolled wirejson scanner, and the record and frame codecs built
// on it.
func isCodec(fn string) bool {
	if hasAnyPrefix(fn, "encoding/json.", "repro/internal/wirejson.") {
		return true
	}
	return strings.HasPrefix(fn, "repro/internal/") &&
		(strings.Contains(fn, "MarshalJSON") || strings.Contains(fn, "AppendRecordJSON") || strings.Contains(fn, "ParseRecord"))
}

// codecTiming times the record codec on recs: harness.AppendRecordJSON per
// record, then Record.UnmarshalJSON on each encoding, each for at least
// minDur. It returns ns per record for each direction.
func codecTiming(tr *traceCtx, recs []harness.Record) (encNs, decNs float64) {
	if len(recs) == 0 {
		return 0, 0
	}
	const minDur = 50 * time.Millisecond
	sp := tr.begin("harness.AppendRecordJSON")
	var buf []byte
	n := 0
	t0 := time.Now()
	for time.Since(t0) < minDur {
		for _, r := range recs {
			buf, _ = harness.AppendRecordJSON(buf[:0], r)
		}
		n += len(recs)
	}
	encNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	sp.end()

	enc := make([][]byte, len(recs))
	for i, r := range recs {
		enc[i], _ = harness.AppendRecordJSON(nil, r)
	}
	sp = tr.begin("harness.Record.UnmarshalJSON")
	var r harness.Record
	n = 0
	t0 = time.Now()
	for time.Since(t0) < minDur {
		for _, b := range enc {
			if err := r.UnmarshalJSON(b); err != nil {
				return encNs, 0
			}
		}
		n += len(enc)
	}
	decNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	sp.end()
	return encNs, decNs
}

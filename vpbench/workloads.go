package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

// workers is the parallelism of every workload: simulation workers,
// closed-loop clients and connections. All load comes from this one
// process, sized for a 2-CPU machine.
const workers = 2

// serve-warm's request mix: a Simulate of one warm spec with probability
// serveSimulateShare, otherwise a Batch of serveBatch warm specs.
const (
	serveSimulateShare = 0.9
	serveBatch         = 32
)

// config is one run's settings.
type config struct {
	workload  string
	seed      uint64
	seconds   float64 // measurement time
	samples   int     // fixed sample count; 0: as many as fit in seconds
	trace     bool
	outDir    string
	warmup    uint64
	measure   uint64
	fleetPort int
	setupReps int       // setup timings per run; 0: the workload's own plan
	passes    int       // store-warm store-served batches per sample
	expect    *expected // nil: the golden values for seed and windows
}

func defaultConfig() *config {
	return &config{
		seed:      defaultSeed,
		seconds:   12,
		outDir:    filepath.Join(".bench_build", "out"),
		warmup:    defaultWarmup,
		measure:   defaultMeasure,
		fleetPort: defaultFleetPort,
		passes:    40,
	}
}

// sampleOut is one sample's measurements.
type sampleOut struct {
	wall     time.Duration
	specs    int       // records delivered
	calls    []float64 // latency of each call the workload's clients made, µs
	perSpec  []float64 // µs per spec of each batch call
	ops      int       // operations attempted
	failed   int       // operations that errored or returned a wrong record
	problems []string
	digest   string   // record digest, for workloads that deliver one batch per sample
	split    []uint64 // per-shard simulations (fleet-cold)
}

// layerData is what a traced sample hands to the per-layer computation.
// Each workload fills what its layers expose.
type layerData struct {
	workers    int          // simulation workers the system under test had
	shardSpans [][]obs.Span // program spans per simulating process part (runner, server or shard)
	setupSpans []obs.Span   // program spans of the last setup (store-warm's writes)
	prom       prom         // server, shard or runner registry, this sample only
	client     prom         // client-side runner registry
	memo       harness.MemoStats
	fleet      bool
	split      []uint64
	unique     int       // distinct simulations the spec set needs
	clientSim  []float64 // client-observed Simulate latencies, µs
	storeBytes float64   // mean bytes of one store entry
	records    []harness.Record
}

// traceCtx is a traced sample's recorder; nil means untraced.
type traceCtx struct {
	spans      *spanRec
	root       span
	layer      layerData
	mem0, mem1 runtime.MemStats // around the traced sample
}

func (t *traceCtx) begin(name string) span { return t.child(name, span{}) }

// child opens a bench span under parent, or under the sample's root span
// when parent is the zero span.
func (t *traceCtx) child(name string, parent span) span {
	if t == nil {
		return span{}
	}
	if parent.r == nil {
		parent = t.root
	}
	return t.spans.begin(name, parent)
}

// workload is one benchmark workload. prepare builds a fresh system under
// test (its duration is one setup_s sample); sample measures once on it.
// Cold workloads need a fresh system per sample.
type workload interface {
	prepare(ctx context.Context, tr *traceCtx) error
	sample(ctx context.Context, tr *traceCtx) (sampleOut, error)
	freshPerSample() bool
	// setupPlan is how setup_s is timed: timings timed setups, each the
	// mean of batch setups back to back. Cheap setups are batched so that a
	// timing is not one allocation's or one page fault's jitter.
	setupPlan() (timings, batch int)
	specSet() *specSet
	// finish runs the checks that need more than the samples and returns
	// every problem found since the first prepare.
	finish(ctx context.Context) []string
	close()
}

// workloadDefs lists the workloads with the reason each exists;
// BENCHMARK.json repeats the reasons.
var workloadDefs = []struct {
	name, why string
	make      func(*config) workload
}{
	{"sweep-cold", "simulation-bound: a cold fig4+corpus sweep through a fresh LocalRunner; emu and pipeline do the work, wire, fleet and store are bypassed", newSweepCold},
	{"serve-warm", "service-bound: a closed loop of 2 clients on a warm in-process vpserved; HTTP, record codec, jobs and memo do the work, simulation none", newServeWarm},
	{"fleet-cold", "fleet-bound: the cold sweep set through a ShardedRunner over 2 shards on fixed ports; ring routing, scatter/gather and duplicated baselines", newFleetCold},
	{"store-warm", "store-bound: the sweep set served from a populated store by fresh runners; store reads and record decode, writes land in setup", newStoreWarm},
}

func newWorkload(c *config) (workload, error) {
	for _, d := range workloadDefs {
		if d.name == c.workload {
			return d.make(c), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", c.workload, workloadNames())
}

func workloadNames() string {
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.name)
	}
	return fmt.Sprint(names)
}

func runnerOptions(c *config) repro.RunnerOptions {
	return repro.RunnerOptions{Warmup: c.warmup, Measure: c.measure, Workers: workers}
}

func register(ctx context.Context, tr *traceCtx, parent span, r repro.Runner, progs []*isa.Program) error {
	sp := tr.child("repro.Runner.RegisterProgram", parent)
	defer sp.end()
	for _, p := range progs {
		if _, err := r.RegisterProgram(ctx, p); err != nil {
			return fmt.Errorf("register %s: %w", p.Name, err)
		}
	}
	return nil
}

// runBatch runs one Batch call and collects the records in delivery order.
func runBatch(ctx context.Context, r repro.Runner, specs []harness.Spec) ([]harness.Record, time.Duration, error) {
	recs := make([]harness.Record, 0, len(specs))
	t0 := time.Now()
	err := r.Batch(ctx, specs, func(rec repro.Record) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, time.Since(t0), err
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// batchSample is the sample of a workload whose sample is one Batch call.
func batchSample(wall time.Duration, set *specSet, recs []harness.Record, problems []string) sampleOut {
	out := sampleOut{
		wall:     wall,
		specs:    len(recs),
		calls:    []float64{us(wall)},
		perSpec:  []float64{us(wall) / float64(len(set.specs))},
		ops:      len(set.specs),
		problems: problems,
		digest:   digest(recs),
	}
	if len(problems) > 0 {
		out.failed = out.ops
	}
	return out
}

// liveServer is an in-process vpserved on a loopback listener.
type liveServer struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startServer listens on addr exactly (no fallback port) and serves a new
// service there.
func startServer(addr string, o service.Options) (*liveServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(o)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &liveServer{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close shuts the listener and every connection, then the service.
func (s *liveServer) close() {
	s.hs.Close()
	<-s.done
	s.srv.Close()
}

// statsz reads the server's /v1/statsz through the typed client.
func (s *liveServer) statsz(ctx context.Context) (service.ServerStats, error) {
	c := client.New(s.url)
	defer c.Close()
	return c.Stats(ctx)
}

// ---------------------------------------------------------------------------
// sweep-cold

type sweepCold struct {
	cfg  *config
	want expected
	set  *specSet
	r    *repro.LocalRunner
	reg  *obs.Registry
	sink *lineSink
}

func newSweepCold(c *config) workload { return &sweepCold{cfg: c, want: expectFor(c)} }

func (w *sweepCold) freshPerSample() bool            { return true }
func (w *sweepCold) setupPlan() (int, int)           { return 5, 20 }
func (w *sweepCold) specSet() *specSet               { return w.set }
func (w *sweepCold) finish(context.Context) []string { return nil }

func (w *sweepCold) prepare(ctx context.Context, tr *traceCtx) error {
	w.close()
	sp := tr.begin("vpbench.buildSet")
	set, err := buildSet(w.cfg.seed, true)
	sp.end()
	if err != nil {
		return err
	}
	o := runnerOptions(w.cfg)
	w.reg, w.sink = nil, nil
	if tr != nil {
		w.reg, w.sink = obs.NewRegistry(), &lineSink{}
		o.Metrics, o.TraceWriter = w.reg, w.sink
	}
	sp = tr.begin("repro.OpenLocalRunner")
	r, err := repro.OpenLocalRunner(o)
	sp.end()
	if err != nil {
		return err
	}
	w.set, w.r = set, r
	return register(ctx, tr, span{}, r, set.progs)
}

func (w *sweepCold) sample(ctx context.Context, tr *traceCtx) (sampleOut, error) {
	defer w.close()
	sp := tr.begin("repro.LocalRunner.Batch")
	recs, wall, err := runBatch(ctx, w.r, w.set.specs)
	sp.end()
	if err != nil {
		return sampleOut{}, fmt.Errorf("sweep-cold batch: %w", err)
	}
	out := batchSample(wall, w.set, recs, checkRecords(w.set, recs, w.want))
	if tr != nil {
		spans, err := w.sink.spans()
		if err != nil {
			return out, err
		}
		tr.layer = layerData{
			workers:    workers,
			shardSpans: [][]obs.Span{spans},
			prom:       scrape(w.reg),
			memo:       w.r.MemoStats(),
			records:    recs,
		}
	}
	return out, nil
}

func (w *sweepCold) close() {
	if w.r != nil {
		w.r.Close()
		w.r = nil
	}
}

// ---------------------------------------------------------------------------
// fleet-cold

type fleetCold struct {
	cfg    *config
	want   expected
	set    *specSet
	shards []*liveServer
	regs   []*obs.Registry
	sinks  []*lineSink
	r      *repro.ShardedRunner
	split  []uint64         // the first sample's per-shard simulations
	last   []harness.Record // the last sample's records, for the reference check
}

// fleetShards is fleet-cold's shard count; each shard has one worker, so
// the fleet has the same two workers as the local workloads.
const fleetShards = 2

func newFleetCold(c *config) workload { return &fleetCold{cfg: c, want: expectFor(c)} }

func (w *fleetCold) freshPerSample() bool  { return true }
func (w *fleetCold) setupPlan() (int, int) { return 5, 5 }
func (w *fleetCold) specSet() *specSet     { return w.set }

func (w *fleetCold) prepare(ctx context.Context, tr *traceCtx) error {
	w.close()
	sp := tr.begin("vpbench.buildSet")
	set, err := buildSet(w.cfg.seed, true)
	sp.end()
	if err != nil {
		return err
	}
	w.set = set
	w.regs, w.sinks = nil, nil
	sp = tr.begin("service.New")
	var urls []string
	for i := range fleetShards {
		o := service.Options{
			Warmup: w.cfg.warmup, Measure: w.cfg.measure, Workers: workers / fleetShards,
			ShardID: "shard-" + strconv.Itoa(i),
		}
		if tr != nil {
			reg, sink := obs.NewRegistry(), &lineSink{}
			o.Metrics, o.TraceWriter = reg, sink
			w.regs, w.sinks = append(w.regs, reg), append(w.sinks, sink)
		}
		// Fixed ports: the ring hashes shard URLs, so a different port
		// would route the specs differently and change the work split.
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(w.cfg.fleetPort+i))
		s, err := startServer(addr, o)
		if err != nil {
			sp.end()
			return fmt.Errorf("fleet-cold shard %d needs port %s (fixed so routing repeats; free it or pass -fleet-port): %w", i, addr, err)
		}
		w.shards = append(w.shards, s)
		urls = append(urls, s.url)
	}
	sp.end()
	sp = tr.begin("repro.OpenShardedRunner")
	r, err := repro.OpenShardedRunner(repro.RunnerOptions{Shards: urls})
	sp.end()
	if err != nil {
		return err
	}
	w.r = r
	return register(ctx, tr, span{}, r, set.progs)
}

func (w *fleetCold) sample(ctx context.Context, tr *traceCtx) (sampleOut, error) {
	defer w.close()
	sp := tr.begin("repro.ShardedRunner.Batch")
	recs, wall, err := runBatch(ctx, w.r, w.set.specs)
	sp.end()
	if err != nil {
		return sampleOut{}, fmt.Errorf("fleet-cold batch: %w", err)
	}
	problems := checkRecords(w.set, recs, w.want)
	split := make([]uint64, len(w.shards))
	var memo harness.MemoStats
	for i, s := range w.shards {
		st, err := s.statsz(ctx)
		if err != nil {
			return sampleOut{}, fmt.Errorf("fleet-cold shard %d statsz: %w", i, err)
		}
		split[i] = st.MemoMisses
		memo.Misses += st.MemoMisses
		memo.Hits += st.MemoHits
		memo.StoreHits += st.MemoStoreHits
	}
	if w.want.shardSims != nil && !slices.Equal(split, w.want.shardSims) {
		problems = append(problems, fmt.Sprintf("per-shard simulations %v, want %v", split, w.want.shardSims))
	}
	if w.split == nil {
		w.split = split
	} else if !slices.Equal(split, w.split) {
		problems = append(problems, fmt.Sprintf("per-shard simulations %v differ from the first sample's %v", split, w.split))
	}
	w.last = recs
	out := batchSample(wall, w.set, recs, problems)
	out.split = split
	if tr != nil {
		l := layerData{
			workers: workers,
			prom:    scrape(w.regs...),
			memo:    memo,
			fleet:   true,
			split:   split,
			unique:  w.set.uniqueSims(),
			records: recs,
		}
		for _, sink := range w.sinks {
			spans, err := sink.spans()
			if err != nil {
				return out, err
			}
			l.shardSpans = append(l.shardSpans, spans)
		}
		tr.layer = l
	}
	return out, nil
}

// finish checks the fleet's corpus records against the same specs run by
// a LocalRunner, so on any seed the fleet's records equal sweep-cold's (the
// fig4 part is held to its golden digest per sample).
func (w *fleetCold) finish(ctx context.Context) []string {
	if w.last == nil {
		return nil
	}
	r, err := repro.OpenLocalRunner(runnerOptions(w.cfg))
	if err != nil {
		return []string{err.Error()}
	}
	defer r.Close()
	if err := register(ctx, nil, span{}, r, w.set.progs); err != nil {
		return []string{err.Error()}
	}
	ref, _, err := runBatch(ctx, r, w.set.specs[w.set.nFig4:])
	if err != nil {
		return []string{"local reference batch: " + err.Error()}
	}
	if i := firstDiff(w.last[w.set.nFig4:], ref); i >= 0 {
		return []string{fmt.Sprintf("fleet corpus record %d differs from the local reference run", w.set.nFig4+i)}
	}
	return nil
}

// close releases the runner before the shards, so the shared client
// transport holds no idle connection to a closed shard when the next
// sample's fresh shards come up on the same ports.
func (w *fleetCold) close() {
	if w.r != nil {
		w.r.Close()
		w.r = nil
	}
	for _, s := range w.shards {
		s.close()
	}
	w.shards = nil
}

// ---------------------------------------------------------------------------
// serve-warm

type serveWarm struct {
	cfg      *config
	want     expected
	set      *specSet
	srv      *liveServer
	reg      *obs.Registry
	sink     *lineSink
	warm     []harness.Spec // canonical warm specs, in set order
	recs     []harness.Record
	byspec   map[harness.Spec]harness.Record
	clients  []*repro.RemoteRunner
	rngs     []*rand.Rand
	problems []string
}

func newServeWarm(c *config) workload {
	w := &serveWarm{cfg: c, want: expectFor(c)}
	for i := range workers {
		w.rngs = append(w.rngs, rand.New(rand.NewPCG(c.seed, uint64(i))))
	}
	return w
}

func (w *serveWarm) freshPerSample() bool  { return false }
func (w *serveWarm) setupPlan() (int, int) { return 3, 1 }
func (w *serveWarm) specSet() *specSet     { return w.set }

func (w *serveWarm) finish(context.Context) []string { return w.problems }

// sampleDur splits the measurement time into ten samples.
func (w *serveWarm) sampleDur() time.Duration {
	n := 10
	if w.cfg.samples > 0 {
		n = w.cfg.samples
	}
	return time.Duration(w.cfg.seconds / float64(n) * float64(time.Second))
}

func (w *serveWarm) prepare(ctx context.Context, tr *traceCtx) error {
	w.close()
	set, err := buildSet(w.cfg.seed, false)
	if err != nil {
		return err
	}
	w.set = set
	w.reg = obs.NewRegistry()
	o := service.Options{Warmup: w.cfg.warmup, Measure: w.cfg.measure, Workers: workers, Metrics: w.reg}
	if w.cfg.trace {
		w.sink = &lineSink{}
		o.TraceWriter = w.sink
	}
	if w.srv, err = startServer("127.0.0.1:0", o); err != nil {
		return err
	}
	r := repro.OpenRemoteRunner(w.srv.url, repro.RunnerOptions{})
	defer r.Close()
	recs, _, err := runBatch(ctx, r, set.specs)
	if err != nil {
		return fmt.Errorf("serve-warm pre-warm batch: %w", err)
	}
	w.problems = append(w.problems, checkRecords(set, recs, w.want)...)
	w.recs = recs
	w.warm = w.warm[:0]
	w.byspec = make(map[harness.Spec]harness.Record, len(recs))
	for i, sp := range set.specs {
		sp = sp.Canonical()
		w.warm = append(w.warm, sp)
		w.byspec[sp] = recs[i]
	}
	for range workers {
		w.clients = append(w.clients, repro.OpenRemoteRunner(w.srv.url, repro.RunnerOptions{}))
	}
	return nil
}

// clientOut is one closed-loop client's share of a sample.
type clientOut struct {
	sims, perSpec      []float64
	specs, ops, failed int
	problems           []string
}

func (w *serveWarm) sample(ctx context.Context, tr *traceCtx) (sampleOut, error) {
	clients := w.clients
	var creg *obs.Registry
	var before prom
	var st0 service.ServerStats
	if tr != nil {
		creg = obs.NewRegistry()
		csink := &lineSink{}
		clients = nil
		for range workers {
			c := repro.OpenRemoteRunner(w.srv.url, repro.RunnerOptions{Metrics: creg, TraceWriter: csink})
			defer c.Close()
			clients = append(clients, c)
		}
		w.sink.reset()
		before = scrape(w.reg)
		var err error
		if st0, err = w.srv.statsz(ctx); err != nil {
			return sampleOut{}, err
		}
	}

	outs := make([]clientOut, len(clients))
	deadline := time.Now().Add(w.sampleDur())
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = w.loop(ctx, tr, c, w.rngs[i], deadline)
		}()
	}
	wg.Wait()
	out := sampleOut{wall: time.Since(t0)}
	for _, o := range outs {
		out.calls = append(out.calls, o.sims...)
		out.perSpec = append(out.perSpec, o.perSpec...)
		out.specs += o.specs
		out.ops += o.ops
		out.failed += o.failed
		out.problems = append(out.problems, o.problems...)
	}
	if tr != nil {
		st1, err := w.srv.statsz(ctx)
		if err != nil {
			return out, err
		}
		spans, err := w.sink.spans()
		if err != nil {
			return out, err
		}
		tr.layer = layerData{
			workers:    workers,
			shardSpans: [][]obs.Span{spans},
			prom:       scrape(w.reg).minus(before),
			client:     scrape(creg),
			memo: harness.MemoStats{
				Hits:      st1.MemoHits - st0.MemoHits,
				Misses:    st1.MemoMisses - st0.MemoMisses,
				StoreHits: st1.MemoStoreHits - st0.MemoStoreHits,
			},
			clientSim: out.calls,
			records:   w.recs,
		}
	}
	return out, nil
}

// loop is one closed-loop client: it sends its next request only after the
// previous reply, until the deadline.
func (w *serveWarm) loop(ctx context.Context, tr *traceCtx, r *repro.RemoteRunner, rng *rand.Rand, deadline time.Time) clientOut {
	var o clientOut
	fail := func(msg string) {
		o.failed++
		if len(o.problems) < 3 {
			o.problems = append(o.problems, msg)
		}
	}
	batch := make([]harness.Spec, serveBatch)
	for time.Now().Before(deadline) {
		o.ops++
		if rng.Float64() < serveSimulateShare {
			spec := w.warm[rng.IntN(len(w.warm))]
			sp := tr.begin("repro.RemoteRunner.Simulate")
			t0 := time.Now()
			rec, err := r.Simulate(ctx, spec)
			d := time.Since(t0)
			sp.end()
			switch {
			case err != nil:
				fail("simulate: " + err.Error())
			case rec != w.byspec[spec]:
				fail("simulate " + spec.Identity() + ": record differs from the pre-warm record")
			default:
				o.sims = append(o.sims, us(d))
				o.specs++
			}
			continue
		}
		for i := range batch {
			batch[i] = w.warm[rng.IntN(len(w.warm))]
		}
		n, bad := 0, false
		sp := tr.begin("repro.RemoteRunner.Batch")
		t0 := time.Now()
		err := r.Batch(ctx, batch, func(rec repro.Record) error {
			bad = bad || rec != w.byspec[batch[n]]
			n++
			return nil
		})
		d := time.Since(t0)
		sp.end()
		switch {
		case err != nil:
			fail("batch: " + err.Error())
		case bad || n != len(batch):
			fail("batch: records differ from the pre-warm records")
		default:
			o.perSpec = append(o.perSpec, us(d)/serveBatch)
			o.specs += serveBatch
		}
	}
	return o
}

func (w *serveWarm) close() {
	for _, c := range w.clients {
		c.Close()
	}
	w.clients = nil
	if w.srv != nil {
		w.srv.close()
		w.srv = nil
	}
}

// ---------------------------------------------------------------------------
// store-warm

type storeWarm struct {
	cfg        *config
	want       expected
	set        *specSet
	dir        string
	recs       []harness.Record // the setup's cold records every pass must reproduce
	sink       *lineSink        // the setup's program spans (traced runs)
	storeBytes float64
	problems   []string
}

func newStoreWarm(c *config) workload { return &storeWarm{cfg: c, want: expectFor(c)} }

func (w *storeWarm) freshPerSample() bool            { return false }
func (w *storeWarm) setupPlan() (int, int)           { return 3, 1 }
func (w *storeWarm) specSet() *specSet               { return w.set }
func (w *storeWarm) finish(context.Context) []string { return w.problems }

// prepare runs the sweep set once, cold, into a fresh store directory:
// every simulation's record is written behind.
func (w *storeWarm) prepare(ctx context.Context, tr *traceCtx) error {
	w.close()
	set, err := buildSet(w.cfg.seed, true)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(w.cfg.outDir, 0o755); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(w.cfg.outDir, "store-"); err != nil {
		return err
	}
	o := runnerOptions(w.cfg)
	o.StoreDir = w.dir
	if w.cfg.trace {
		w.sink = &lineSink{}
		o.TraceWriter = w.sink
	}
	r, err := repro.OpenLocalRunner(o)
	if err != nil {
		return err
	}
	defer r.Close()
	if err := register(ctx, tr, span{}, r, set.progs); err != nil {
		return err
	}
	recs, _, err := runBatch(ctx, r, set.specs)
	if err != nil {
		return fmt.Errorf("store-warm cold batch: %w", err)
	}
	w.problems = append(w.problems, checkRecords(set, recs, w.want)...)
	w.set, w.recs = set, recs
	w.storeBytes, err = meanFileBytes(w.dir)
	return err
}

// sample runs passes store-served batches, each through a fresh runner over
// the populated store: what a new process pays to answer the sweep from disk.
func (w *storeWarm) sample(ctx context.Context, tr *traceCtx) (sampleOut, error) {
	o := runnerOptions(w.cfg)
	o.StoreDir = w.dir
	var reg *obs.Registry
	var sink *lineSink
	if tr != nil {
		reg, sink = obs.NewRegistry(), &lineSink{}
		o.Metrics, o.TraceWriter = reg, sink
	}
	out := sampleOut{digest: digest(w.recs)}
	var memo harness.MemoStats
	n := len(w.set.specs)
	t0 := time.Now()
	for range w.cfg.passes {
		pass := tr.begin("vpbench.storePass")
		p0 := time.Now()
		sp := tr.child("repro.OpenLocalRunner", pass)
		r, err := repro.OpenLocalRunner(o)
		sp.end()
		if err != nil {
			return out, err
		}
		err = register(ctx, tr, pass, r, w.set.progs)
		var recs []harness.Record
		if err == nil {
			sp = tr.child("repro.LocalRunner.Batch", pass)
			recs, _, err = runBatch(ctx, r, w.set.specs)
			sp.end()
		}
		d := time.Since(p0)
		pass.end()
		m := r.MemoStats()
		r.Close()
		memo.Hits += m.Hits
		memo.Misses += m.Misses
		memo.StoreHits += m.StoreHits
		memo.Store.Hits += m.Store.Hits
		memo.Store.Misses += m.Store.Misses
		memo.Store.LoadErrors += m.Store.LoadErrors
		out.ops += n
		var problem string
		switch {
		case err != nil:
			problem = "store pass: " + err.Error()
		case m.Misses != 0:
			problem = fmt.Sprintf("store pass simulated %d specs; the store should serve every one", m.Misses)
		case firstDiff(recs, w.recs) >= 0:
			problem = "store pass records differ from the cold records"
		}
		if problem != "" {
			out.failed += n
			if len(out.problems) < 3 {
				out.problems = append(out.problems, problem)
			}
			continue
		}
		out.calls = append(out.calls, us(d))
		out.perSpec = append(out.perSpec, us(d)/float64(n))
		out.specs += n
	}
	out.wall = time.Since(t0)
	if tr != nil {
		spans, err := sink.spans()
		if err != nil {
			return out, err
		}
		setup, err := w.sink.spans()
		if err != nil {
			return out, err
		}
		tr.layer = layerData{
			workers:    workers,
			shardSpans: [][]obs.Span{spans},
			setupSpans: setup,
			prom:       scrape(reg),
			memo:       memo,
			storeBytes: w.storeBytes,
			records:    w.recs,
		}
	}
	return out, nil
}

func (w *storeWarm) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// meanFileBytes is the mean size of the store entries in dir.
func meanFileBytes(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total, n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
			n++
		}
	}
	if n == 0 {
		return 0, errors.New("store-warm: the cold pass persisted no entries")
	}
	return float64(total) / float64(n), nil
}

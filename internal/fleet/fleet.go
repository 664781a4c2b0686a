package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/service"
	"repro/internal/service/client"
)

// Options configures a fleet Runner. Only Shards is required.
type Options struct {
	// Shards is the vpserved base URLs forming the fleet, e.g.
	// {"http://127.0.0.1:8437", "http://127.0.0.1:8438"}. Order is
	// irrelevant to routing (the ring hashes the URLs themselves) but fixed
	// at construction: a fleet does not resize in place.
	Shards []string

	// ProbeInterval is how often the background prober refreshes every
	// shard's health (default 2s; negative disables background probing —
	// dispatch-time classification still marks shards down/draining). A
	// one-shard fleet never probes: it routes to its only shard whatever
	// that shard's health.
	ProbeInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 2 * time.Second
	}
	return o
}

const (
	// probeTimeout bounds one health probe.
	probeTimeout = time.Second

	// maxFrame caps the specs per batch-sync frame, well under the
	// server's default 4096 admission limit. Oversized frames are also
	// split adaptively when a shard answers 413.
	maxFrame = 256
)

// Shard health states. A shard starts Up (optimistically — the first failed
// dispatch or probe demotes it), turns Draining when it answers the 503
// draining health shape, and Down when it stops answering at all. Draining
// and Down shards receive no new work; the prober promotes them back to Up
// when they recover.
const (
	StateUp       = "up"
	StateDraining = "draining"
	StateDown     = "down"
)

// shard is one vpserved backend: its client plus the prober/dispatcher's
// shared view of its health.
type shard struct {
	url   string
	c     *client.Client
	state atomic.Int32 // 0 up, 1 draining, 2 down

	mu      sync.Mutex
	shardID string // from healthz/statsz, for ShardStatus reporting
	lastErr error
}

const (
	stUp int32 = iota
	stDraining
	stDown
)

func (s *shard) setState(st int32, err error) {
	s.state.Store(st)
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

func (s *shard) healthy() bool { return s.state.Load() == stUp }

// ShardStatus is one shard's externally visible health, for CLIs and tests.
type ShardStatus struct {
	URL     string
	ShardID string
	State   string
	LastErr string
}

// Runner is the fleet front over N vpserved shards: the records primitive
// (Records), program registration and a render session that the public
// ShardedRunner builds its Runner methods on. Safe for concurrent use.
type Runner struct {
	opts   Options
	shards []*shard
	ring   *ring

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// progs remembers every registered program's encoded bytes so any shard
	// that has forgotten one (restart, late join after mark-down) is cured
	// by re-upload instead of surfacing unknown_program.
	mu    sync.Mutex
	progs map[string][]byte
}

// New builds the fleet front and, over more than one shard, starts its
// background prober. It does not contact the shards: a fleet over daemons
// that are still starting becomes healthy as soon as they answer.
func New(o Options) (*Runner, error) {
	o = o.withDefaults()
	if len(o.Shards) == 0 {
		return nil, errors.New("fleet: no shards configured")
	}
	seen := make(map[string]bool, len(o.Shards))
	f := &Runner{
		opts:  o,
		ring:  newRing(o.Shards),
		stop:  make(chan struct{}),
		progs: make(map[string][]byte),
	}
	for _, u := range o.Shards {
		if u == "" || seen[u] {
			return nil, fmt.Errorf("fleet: empty or duplicate shard URL %q", u)
		}
		seen[u] = true
		f.shards = append(f.shards, &shard{url: u, c: client.New(u)})
	}
	if o.ProbeInterval > 0 && len(f.shards) > 1 {
		f.wg.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// Shards reports every shard's current health, in configuration order.
func (f *Runner) Shards() []ShardStatus {
	out := make([]ShardStatus, len(f.shards))
	for i, s := range f.shards {
		st := ShardStatus{URL: s.url}
		switch s.state.Load() {
		case stDraining:
			st.State = StateDraining
		case stDown:
			st.State = StateDown
		default:
			st.State = StateUp
		}
		s.mu.Lock()
		st.ShardID = s.shardID
		if s.lastErr != nil {
			st.LastErr = s.lastErr.Error()
		}
		s.mu.Unlock()
		out[i] = st
	}
	return out
}

// probeLoop refreshes every shard's health on a timer until Close.
func (f *Runner) probeLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.ProbeOnce(context.Background())
		}
	}
}

// ProbeOnce probes every shard's /v1/healthz once, concurrently, and
// updates the routing states. The background prober calls it on a timer;
// tests and CLIs may call it directly for a deterministic refresh.
func (f *Runner) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range f.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			h, err := s.c.Health(pctx)
			switch {
			case err != nil:
				s.setState(stDown, err)
			case h.Draining:
				s.setState(stDraining, nil)
			default:
				s.setState(stUp, nil)
			}
			if h.ShardID != "" {
				s.mu.Lock()
				s.shardID = h.ShardID
				s.mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
}

// target resolves the shard that should serve key right now: the first
// healthy candidate in ring order. When no shard is healthy it falls back
// to the ring owner anyway — a stale mark-down must not wedge the fleet,
// and a genuinely dead fleet then surfaces the real transport error.
func (f *Runner) target(key string) *shard {
	cands := f.ring.candidates(key)
	for _, i := range cands {
		if f.shards[i].healthy() {
			return f.shards[i]
		}
	}
	return f.shards[cands[0]]
}

// classify sorts a dispatch error into the routing taxonomy:
// rerouteable (the shard is unfit — transport failure or draining; mark it
// and try another), curable (unknown_program — re-upload and retry the same
// shard), or neither (a real per-spec failure or a dead context: propagate).
func classify(err error) (reroute, curable bool) {
	if err == nil {
		return false, false
	}
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) {
		// No typed envelope: the request never got a service answer
		// (connection refused, reset, timeout). Context death is the
		// caller's, not the shard's.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return false, false
		}
		return true, false
	}
	switch apiErr.Code {
	case service.CodeDraining:
		return true, false
	case service.CodeUnknownProgram:
		return false, true
	}
	return false, false
}

// markUnfit demotes a shard according to the rerouteable error it produced.
func (f *Runner) markUnfit(s *shard, err error) {
	var apiErr *service.APIError
	if errors.As(err, &apiErr) && apiErr.Code == service.CodeDraining {
		s.setState(stDraining, err)
		return
	}
	s.setState(stDown, err)
}

// reupload pushes every remembered program to one shard, curing
// unknown_program after a shard restart. Reports whether anything was
// uploaded (i.e. whether a retry could help).
func (f *Runner) reupload(ctx context.Context, s *shard) bool {
	f.mu.Lock()
	encs := make([][]byte, 0, len(f.progs))
	for _, enc := range f.progs {
		encs = append(encs, enc)
	}
	f.mu.Unlock()
	ok := false
	for _, enc := range encs {
		if _, err := s.c.UploadProgram(ctx, enc); err == nil {
			ok = true
		}
	}
	return ok
}

// maxAttempts bounds re-routing: every shard may be tried roughly twice
// (once optimistically, once after the prober refreshed states) before a
// dispatch gives up with the last error.
func (f *Runner) maxAttempts() int { return 2*len(f.shards) + 1 }

// outcome is one spec's gathered result.
type outcome struct {
	rec harness.Record
	err error
}

// Records scatters the specs across their owning shards as batch-sync
// frames and gathers the records back into deterministic spec order, with
// harness.Session.Records' contract: fn is invoked exactly once per spec,
// in spec order, never concurrently, as soon as each record's turn is
// reachable; specs are canonicalized, not validated (a shard rejects an
// invalid one); on failure it returns the index of the first failing spec
// with that spec's error, or -1 when fn failed or ctx ended. A shard lost
// mid-batch has its frames re-scattered over the surviving shards; records
// stay byte-identical because simulation is a pure function of spec and
// windows, wherever it runs.
func (f *Runner) Records(ctx context.Context, specs []harness.Spec, fn func(harness.Record) error) (failed int, err error) {
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	canon := make([]harness.Spec, len(specs))
	for i, sp := range specs {
		canon[i] = sp.Canonical()
	}
	ctx, cancel := context.WithCancel(ctx)

	// One buffered slot per spec: every dispatch path delivers each index
	// exactly once, so senders never block and the in-order loop below
	// drains at its own pace.
	slots := make([]chan outcome, len(canon))
	for i := range slots {
		slots[i] = make(chan outcome, 1)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel() // runs before wg.Wait: dispatchers die before we wait

	f.scatter(ctx, &wg, canon, indexRange(len(canon)), slots, f.maxAttempts())

	for i := range canon {
		select {
		case out := <-slots[i]:
			if out.err != nil {
				if ctx.Err() != nil {
					return -1, ctx.Err()
				}
				return i, out.err
			}
			if err := fn(out.rec); err != nil {
				return -1, err
			}
		case <-ctx.Done():
			return -1, ctx.Err()
		}
	}
	return -1, nil
}

func indexRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// scatter groups the given spec indices by owning shard into frames of at
// most maxFrame specs and dispatches one goroutine per frame. A lone frame
// (every Simulate, and a remote runner's batch of up to maxFrame specs)
// runs on the calling goroutine instead, which would only wait for it.
// Grouping consults live health, so a re-scatter after a mark-down lands on
// the survivors.
func (f *Runner) scatter(ctx context.Context, wg *sync.WaitGroup, canon []harness.Spec, idxs []int, slots []chan outcome, attempts int) {
	groups := make(map[*shard][]int)
	for _, i := range idxs {
		s := f.target(canon[i].Identity())
		groups[s] = append(groups[s], i)
	}
	if len(groups) == 1 && len(idxs) <= maxFrame {
		for s, group := range groups {
			f.runFrame(ctx, wg, s, canon, group, slots, attempts, false)
		}
		return
	}
	for s, group := range groups {
		for len(group) > 0 {
			n := len(group)
			if n > maxFrame {
				n = maxFrame
			}
			frame := group[:n]
			group = group[n:]
			wg.Add(1)
			go func(s *shard, frame []int) {
				defer wg.Done()
				f.runFrame(ctx, wg, s, canon, frame, slots, attempts, false)
			}(s, frame)
		}
	}
}

// deliver resolves a set of spec indices with one shared outcome.
func deliver(slots []chan outcome, idxs []int, out outcome) {
	for _, i := range idxs {
		slots[i] <- out
	}
}

// runFrame sends one batch-sync frame to one shard and routes the result:
// success delivers every record; a rerouteable failure marks the shard and
// re-scatters the frame over the survivors; unknown_program re-uploads and
// retries in place; a per-spec failure bisects the frame so the failure is
// attributed to the exact spec (and the frame's healthy specs still
// complete). Every index is delivered exactly once on every path.
func (f *Runner) runFrame(ctx context.Context, wg *sync.WaitGroup, s *shard, canon []harness.Spec, idxs []int, slots []chan outcome, attempts int, cured bool) {
	if ctx.Err() != nil {
		deliver(slots, idxs, outcome{err: ctx.Err()})
		return
	}
	frame := make([]harness.Spec, len(idxs))
	for k, i := range idxs {
		frame[k] = canon[i]
	}
	recs, err := s.c.SimulateBatchSync(ctx, frame)
	if err == nil {
		for k, i := range idxs {
			slots[i] <- outcome{rec: recs[k]}
		}
		return
	}
	if attempts <= 0 {
		deliver(slots, idxs, outcome{err: fmt.Errorf("fleet: no shard could serve the frame: %w", err)})
		return
	}
	reroute, curable := classify(err)
	switch {
	case curable && !cured && f.reupload(ctx, s):
		f.runFrame(ctx, wg, s, canon, idxs, slots, attempts-1, true)
	case reroute:
		f.markUnfit(s, err)
		f.scatter(ctx, wg, canon, idxs, slots, attempts-1)
	case len(idxs) > 1:
		// Either the shard's admission limit is smaller than our frame
		// (too_large) or the all-or-nothing frame failed on some spec:
		// bisect, so the failure is attributed to the exact spec and the
		// innocent specs still complete. Halving terminates on its own — no
		// attempt spent.
		mid := len(idxs) / 2
		f.runFrame(ctx, wg, s, canon, idxs[:mid], slots, attempts, cured)
		f.runFrame(ctx, wg, s, canon, idxs[mid:], slots, attempts, cured)
	default:
		deliver(slots, idxs, outcome{err: err})
	}
}

// RegisterProgram validates and encodes p, uploads it to every shard, and
// remembers the bytes so shards that restart (or were down during
// registration) are cured on demand. The returned workload id is content-
// addressed, so every shard answers the same id.
func (f *Runner) RegisterProgram(ctx context.Context, p *isa.Program) (string, error) {
	if p == nil {
		return "", errors.New("repro: RegisterProgram: nil program")
	}
	if err := isa.CheckEncodable(p); err != nil {
		return "", err
	}
	if err := p.Validate(); err != nil {
		return "", fmt.Errorf("repro: invalid program: %w", err)
	}
	enc := p.Encode()
	id := ""
	var lastErr error
	for _, s := range f.shards {
		info, err := s.c.UploadProgram(ctx, enc)
		if err != nil {
			if reroute, _ := classify(err); reroute {
				f.markUnfit(s, err)
				lastErr = err
				continue
			}
			return "", err
		}
		if id == "" {
			id = info.ID
		} else if id != info.ID {
			return "", fmt.Errorf("fleet: shards disagree on program identity: %s vs %s", id, info.ID)
		}
	}
	if id == "" {
		return "", fmt.Errorf("fleet: no shard accepted the program: %w", lastErr)
	}
	if harness.IsProgramRef(id) {
		f.mu.Lock()
		f.progs[id] = enc
		f.mu.Unlock()
	}
	return id, nil
}

// Session builds a fresh session at the shards' windows, read from one
// /v1/statsz: the session spec-less experiments render on (only profile
// reads it, to trace kernels).
func (f *Runner) Session(ctx context.Context) (*harness.Session, error) {
	st, err := f.stats(ctx)
	if err != nil {
		return nil, err
	}
	return harness.NewSession(harness.SessionConfig{Warmup: st.Limits.Warmup, Measure: st.Limits.Measure}), nil
}

// stats fetches /v1/statsz from any healthy shard.
func (f *Runner) stats(ctx context.Context) (service.ServerStats, error) {
	var st service.ServerStats
	err := f.onShard("fleet:stats", func(s *shard) (err error) {
		st, err = s.c.Stats(ctx)
		return err
	})
	return st, err
}

// onShard runs one single-shard call against key's shard, rerouting around
// shards the call proves unfit (classify) up to maxAttempts; any other
// error is the call's own and returns as is.
func (f *Runner) onShard(key string, call func(*shard) error) error {
	var lastErr error
	for attempt := 0; attempt < f.maxAttempts(); attempt++ {
		s := f.target(key)
		err := call(s)
		if reroute, _ := classify(err); !reroute {
			return err
		}
		f.markUnfit(s, err)
		lastErr = err
	}
	return fmt.Errorf("fleet: no shard could serve %s: %w", key, lastErr)
}

// Close stops the prober and releases every shard client's pooled
// connections. Safe to call more than once.
func (f *Runner) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
	for _, s := range f.shards {
		s.c.Close()
	}
	return nil
}

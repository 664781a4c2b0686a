package service

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/harness"
)

// job is one submitted batch or experiment. Its task list is the requested
// spec set plus the deduplicated baselines their speedups need (mirroring
// Session.Records), fanned through the server-wide scheduler; results come
// back via deliver. A record streams as soon as its spec and baseline have
// both landed, so consumers see results while the batch is still running;
// the terminal JobStatus carries the full record list in spec order.
type job struct {
	server *Server
	id     string
	kind   string // "batch" or "experiment"
	expID  string

	specs []harness.Spec // requested, in request order
	plan
	deps [][]int // task index -> requested specs it can complete

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	results   []*harness.Result // per task
	errs      []error           // per task
	delivered []bool            // per task
	nDeliv    int
	recorded  []bool            // per requested spec
	records   []*harness.Record // per requested spec
	completed int               // requested specs finished (recorded or failed)
	events    []Event           // replay buffer for late stream subscribers
	subs      map[chan Event]struct{}
	errMsg    string
	artifact  string
	canceled  bool // DELETE /v1/jobs/{id} was called
	submitted time.Time
	started   time.Time
	finished  time.Time

	allDone chan struct{} // closed when every task has been delivered
	doneCh  chan struct{} // closed when the job reaches a terminal state
}

// plan is the task list for a set of requested specs: the specs themselves
// plus each non-baseline spec's baseline, deduplicated in first-appearance
// order (duplicates would only occupy queue slots; the memo and the
// scheduler coalescing make them free, but there is no reason to carry
// them). Jobs and the synchronous core (runSync) both run one.
type plan struct {
	tasks   []harness.Spec // deduplicated specs + baselines
	taskIdx []int          // requested spec i -> index into tasks
	baseIdx []int          // requested spec i -> baseline index into tasks, -1 if none
}

func newPlan(specs []harness.Spec) plan {
	p := plan{taskIdx: make([]int, len(specs)), baseIdx: make([]int, len(specs))}
	seen := make(map[harness.Spec]int)
	add := func(sp harness.Spec) int {
		i, ok := seen[sp]
		if !ok {
			i = len(p.tasks)
			seen[sp] = i
			p.tasks = append(p.tasks, sp)
		}
		return i
	}
	for i, sp := range specs {
		p.taskIdx[i], p.baseIdx[i] = add(sp), -1
		if sp.Predictor != "none" {
			p.baseIdx[i] = add(sp.Baseline())
		}
	}
	return p
}

// newJob builds a job over the plan of the requested specs.
func (s *Server) newJob(kind, expID string, specs []harness.Spec) *job {
	j := &job{
		server:    s,
		id:        s.nextJobID(),
		kind:      kind,
		expID:     expID,
		specs:     specs,
		plan:      newPlan(specs),
		state:     StateQueued,
		recorded:  make([]bool, len(specs)),
		records:   make([]*harness.Record, len(specs)),
		subs:      make(map[chan Event]struct{}),
		submitted: time.Now(),
		allDone:   make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	// Reverse index: which requested specs does each task's delivery affect?
	// deliver then touches only those instead of rescanning the whole batch.
	j.deps = make([][]int, len(j.tasks))
	for i := range specs {
		j.deps[j.taskIdx[i]] = append(j.deps[j.taskIdx[i]], i)
		if b := j.baseIdx[i]; b >= 0 && b != j.taskIdx[i] {
			j.deps[b] = append(j.deps[b], i)
		}
	}
	j.results = make([]*harness.Result, len(j.tasks))
	j.errs = make([]error, len(j.tasks))
	j.delivered = make([]bool, len(j.tasks))
	if len(j.tasks) == 0 {
		// Text-only experiments declare no specs; all their work happens in
		// finalize's render.
		close(j.allDone)
	}
	return j
}

// taskCtx implements taskSink.
func (j *job) taskCtx() context.Context { return j.ctx }

// deliver implements taskSink: it lands one task's result, streams any
// requested record that just became computable (its spec and baseline are
// both in the memo, so Session.Record is a pure warm lookup), and closes
// allDone on the last task. A requested spec that completes without a
// record — its simulation failed, its baseline failed, or flattening the
// record itself failed — broadcasts a per-spec "error" event instead, so
// streaming clients learn about the loss before the terminal "done".
// Deliveries after the job finished (late cancellation fallout) are dropped.
func (j *job) deliver(idx int, res *harness.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning && j.state != StateQueued {
		return
	}
	if j.delivered[idx] {
		return
	}
	j.delivered[idx] = true
	j.results[idx] = res
	j.errs[idx] = err
	j.nDeliv++

	for _, i := range j.deps[idx] {
		if j.recorded[i] || !j.delivered[j.taskIdx[i]] {
			continue
		}
		if b := j.baseIdx[i]; b >= 0 && !j.delivered[b] {
			continue
		}
		specErr := j.errs[j.taskIdx[i]]
		var baseErr error
		if j.baseIdx[i] >= 0 {
			baseErr = j.errs[j.baseIdx[i]]
		}
		j.recorded[i] = true
		j.completed++
		recErr := specErr
		if recErr == nil {
			recErr = baseErr
		}
		if recErr == nil {
			rec, rerr := j.server.session.Record(j.results[j.taskIdx[i]])
			if rerr != nil {
				j.errs[j.taskIdx[i]] = rerr
				recErr = rerr
			} else {
				j.records[i] = &rec
				j.broadcastLocked(Event{Type: "record", Index: i, Record: &rec})
			}
		}
		if recErr != nil {
			j.broadcastLocked(Event{Type: "error", Index: i, Error: recErr.Error()})
		}
	}
	if j.nDeliv == len(j.tasks) {
		close(j.allDone)
	}
}

// run is the job goroutine: feed every task to the scheduler, wait for all
// deliveries (or cancellation), then finalize.
func (j *job) run() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.broadcastLocked(Event{Type: "status", Job: j.statusLocked(false)})
	j.mu.Unlock()
	j.server.metrics.countJob(j.kind, StateRunning)

	for i, sp := range j.tasks {
		if j.ctx.Err() != nil {
			j.deliver(i, nil, j.ctx.Err())
			continue
		}
		if err := j.server.sched.submit(task{sink: j, idx: i, spec: sp}); err != nil {
			j.deliver(i, nil, err)
		}
	}
	select {
	case <-j.allDone:
	case <-j.ctx.Done():
	}
	j.finalize()
}

// finalize computes the terminal state. For a successful experiment job it
// also renders the paper artifact — every declared spec is warm in the memo
// at this point, so rendering is a read; experiments without a declared
// spec set (static tables, custom-predictor ablations) do their work right
// here on the job goroutine.
func (j *job) finalize() {
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return
	}
	var firstErr error
	for _, i := range j.taskIdx {
		if j.errs[i] != nil {
			firstErr = j.errs[i]
			break
		}
	}
	if firstErr == nil {
		for _, err := range j.errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr == nil && j.ctx.Err() != nil {
		firstErr = j.ctx.Err()
	}
	kind, expID := j.kind, j.expID
	j.mu.Unlock()

	var artifact string
	var renderErr error
	// With every experiment's spec set pre-declared (ablation sweep points
	// included) the render is a pure read of warm memo entries, and
	// Experiment.Run takes the job context, so a DELETE landing mid-render
	// interrupts it — even inside a simulation, should a memo entry turn
	// out cold. No serialization is needed: simulation concurrency stays
	// bounded by the worker pool, which already ran the declared specs.
	if firstErr == nil && kind == "experiment" && j.ctx.Err() == nil {
		if e, ok := harness.ExperimentByID(expID); ok {
			var buf bytes.Buffer
			if renderErr = e.Run(j.ctx, j.server.session, &buf); renderErr == nil {
				artifact = buf.String()
			}
		} else {
			renderErr = fmt.Errorf("experiment %q disappeared", expID)
		}
	}

	j.mu.Lock()
	// Re-read the cancellation flag: a DELETE that lands during the render
	// must still win over "done".
	canceled := j.canceled || j.ctx.Err() != nil
	j.finished = time.Now()
	j.artifact = artifact
	switch {
	case canceled || (firstErr != nil && harness.IsContextErr(firstErr)) ||
		(renderErr != nil && harness.IsContextErr(renderErr)):
		j.state = StateCanceled
		// A DELETE can land after the last simulation, while the warm
		// render is completing under the already-dead context; the
		// cancellation wins over "done", so the artifact goes with it.
		j.artifact = ""
		if firstErr != nil {
			j.errMsg = firstErr.Error()
		} else {
			j.errMsg = context.Canceled.Error()
		}
	case firstErr != nil:
		j.state = StateFailed
		j.errMsg = firstErr.Error()
	case renderErr != nil:
		j.state = StateFailed
		j.errMsg = renderErr.Error()
	default:
		j.state = StateDone
	}
	// Flush per-spec error events for requested specs that will never
	// produce a record: cancellation killed their tasks before delivery, or
	// their delivery raced the terminal transition and was dropped. This
	// keeps the stream's accounting exact — every requested spec emits a
	// record or an error event before the terminal done — and stays within
	// the subscriber buffer bound (at most one record-or-error per spec).
	for i := range j.specs {
		if j.recorded[i] || j.records[i] != nil {
			continue
		}
		reason := firstErr
		if err := j.errs[j.taskIdx[i]]; err != nil {
			reason = err
		}
		if reason == nil {
			if reason = j.ctx.Err(); reason == nil {
				if reason = renderErr; reason == nil {
					reason = context.Canceled
				}
			}
		}
		j.recorded[i] = true
		j.broadcastLocked(Event{Type: "error", Index: i, Error: reason.Error()})
	}
	// The done event is light by contract: records already streamed one by
	// one, but the artifact (a plain string) rides along so stream-only
	// consumers get the rendered table.
	done := j.statusLocked(false)
	done.Artifact = j.artifact
	j.broadcastLocked(Event{Type: "done", Job: done})
	close(j.doneCh)
	terminal := j.state
	j.mu.Unlock()

	j.server.metrics.countJob(j.kind, terminal)
	j.server.metrics.jobsActive.Dec()
	j.cancel() // release the context's resources
	j.server.jobFinished()
}

// cancelJob flags the job as user-cancelled and cancels its context; the
// scheduler observes the dead context at the next checkpoint and frees the
// job's workers.
func (j *job) cancelJob() {
	j.mu.Lock()
	j.canceled = true
	j.mu.Unlock()
	j.cancel()
}

// statusLocked snapshots the wire status; callers hold j.mu. withResults
// selects whether a terminal job's record list and artifact are
// materialized — the job listing and the stream's done event are
// contractually light, so they skip the per-record copying. Failed and
// canceled jobs materialize too: records that completed before the failure
// are real results the client already paid for, so they are returned
// (missing entries stay zero; the per-spec "error" events on the stream
// say which).
func (j *job) statusLocked(withResults bool) *JobStatus {
	st := &JobStatus{
		ID:            j.id,
		Kind:          j.kind,
		Experiment:    j.expID,
		State:         j.state,
		Specs:         len(j.specs),
		Completed:     j.completed,
		Error:         j.errMsg,
		SubmittedUnix: j.submitted.Unix(),
	}
	if !j.started.IsZero() {
		st.StartedUnix = j.started.Unix()
	}
	if !j.finished.IsZero() {
		st.FinishedUnix = j.finished.Unix()
	}
	if withResults && terminalState(j.state) {
		st.Records = make([]harness.Record, len(j.specs))
		for i, r := range j.records {
			if r != nil {
				st.Records[i] = *r
			}
		}
		st.Artifact = j.artifact
	}
	return st
}

// status snapshots the wire status, results included for done jobs.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(true)
}

// statusLight snapshots the wire status without records or artifact.
func (j *job) statusLight() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(false)
}

// broadcastLocked appends ev to the replay buffer and fans it out to live
// subscribers; callers hold j.mu. Subscriber channels are sized so that the
// bounded event stream can never fill them (see subscribe), making the send
// non-blocking by construction — the default arm is pure defense.
func (j *job) broadcastLocked(ev Event) {
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe returns the events broadcast so far and a channel for the rest.
// The channel capacity covers every event the job can still emit (one
// record per spec plus status transitions), so broadcasters never block on
// a slow reader; the reader's transport backpressure is handled by the
// stream handler, not here.
func (j *job) subscribe() (replay []Event, ch chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	ch = make(chan Event, len(j.specs)+4)
	j.subs[ch] = struct{}{}
	return replay, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

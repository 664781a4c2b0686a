package pipeline

import (
	"errors"
	"fmt"
	"iter"
	"sync"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/memdep"
	"repro/internal/regfile"
)

// noSlot marks an absent ROB dependency.
const noSlot = -1

// robEntry is one in-flight µop. Its predictor payload (value and branch
// prediction metadata, history and RAS checkpoints) lives in the payload
// ring, not here, so dispatch never copies it.
type robEntry struct {
	ti int // trace index: the µop's identity across slot reuse

	issueCyc int64
	doneCyc  int64

	issued bool
	done   bool
	wbDone bool // writeback-side effects already processed
	inIQ   bool

	// Dependencies: ROB slots of the producing µops (noSlot if the operand
	// was architecturally ready at dispatch), guarded by the producer's trace
	// index for slot reuse.
	dep1, dep2     int
	dep1TI, dep2TI int

	// Value prediction.
	vpTried   bool // the predictor was consulted for this µop at fetch
	conf      bool // confident prediction written to the PRF at dispatch
	predWrong bool
	predUsed  bool // a dependent issued consuming the predicted value

	brMispred bool // fetch mispredicted this control µop

	// The µop's static class and destination register, cached at dispatch
	// so issue, commit and squash need not look them up.
	class isa.Class
	dst   isa.Reg

	fwdStore    bool // load satisfied by store-to-load forwarding
	usedSpecSrc bool // issued consuming a not-yet-validated predicted value

	// Store-set dependence: the load must wait for the store at this trace
	// index.
	hasDepStore bool
	depStoreTI  int
}

// feEntry is a fetched µop waiting in the in-order front-end.
type feEntry struct {
	ti        int
	readyCyc  int64
	vpTried   bool
	conf      bool
	predWrong bool
	brMispred bool
}

// payload is the per-µop state that travels from fetch to commit untouched
// by the back-end: the value predictor's and TAGE's fetch-time metadata for
// training, and the history position and RAS top a squash restores. It
// lives in a ring indexed by trace index (Sim.pay), written in place at
// fetch and read in place at commit and squash. In-flight µops (ROB plus
// fetch queue) always span the contiguous trace-index range
// [oldest in-flight, fetchIdx), and the ring is longer than that range can
// be, so a live µop's slot is never reused.
type payload struct {
	meta    core.Meta
	bmeta   bpred.TageMeta
	histPos uint64 // global history position before this µop
	rasTop  int    // RAS top before this µop
}

// staticInst is one instruction of the trace's code as the hot path reads
// it, decoded once in Prepare and indexed by PC, so fetch and dispatch look
// up no opcode tables per µop.
type staticInst struct {
	class           isa.Class
	dst, src1, src2 isa.Reg
	vpEligible      bool // isa.Inst.HasDest: a value-predictable register result
	control         bool
	load, store     bool
}

// Prepared is a trace made ready to simulate: its µops, its code decoded
// as the hot path reads it, TAGE's lookup of every conditional branch
// (bpred.Lookups), and the rows through which VTAGE and PS read the global
// history. Everything in it is a property of the trace alone, so it is
// built once per trace and shared, read-only, by every simulation of it.
// Construct with Prepare.
type Prepared struct {
	trace isa.Trace
	code  []staticInst
	tage  *bpred.Lookups

	mu    sync.Mutex // guards the value predictors' rows, built on first use
	vtage []*core.VTAGERows
	ps    *core.PSRows
}

// Prepare decodes tr's code and builds its TAGE lookups from its
// conditional branches.
func Prepare(tr isa.Trace) *Prepared {
	w := &Prepared{trace: tr, code: make([]staticInst, len(tr.Insts))}
	for pc, in := range tr.Insts {
		cls := isa.ClassOf(in.Op)
		w.code[pc] = staticInst{
			class: cls, dst: in.Dst, src1: in.Src1, src2: in.Src2,
			vpEligible: in.HasDest(),
			control:    isa.IsControl(in.Op),
			load:       cls == isa.ClassLoad,
			store:      cls == isa.ClassStore,
		}
	}
	w.tage = bpred.BuildLookups(bpred.DefaultTageConfig(), w.branches())
	return w
}

// branches yields the PC and outcome of the trace's conditional branches,
// in trace order: what a history position counts.
func (w *Prepared) branches() iter.Seq2[uint64, bool] {
	return func(yield func(uint64, bool) bool) {
		for i := range w.trace.Uops {
			di := &w.trace.Uops[i]
			if w.code[di.PC()].class == isa.ClassBranch && !yield(uint64(di.PC()), di.Taken()) {
				return
			}
		}
	}
}

// Trace returns the trace w was prepared from.
func (w *Prepared) Trace() isa.Trace { return w.trace }

// VTAGERows returns the trace's VTAGE rows for cfg's history geometry,
// building them on first use.
func (w *Prepared) VTAGERows(cfg core.VTAGEConfig) *core.VTAGERows {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, rows := range w.vtage {
		if rows.Fits(cfg) {
			return rows
		}
	}
	w.vtage = append(w.vtage, core.BuildVTAGERows(cfg, w.branches()))
	return w.vtage[len(w.vtage)-1]
}

// PSRows returns the trace's PS rows, building them on first use.
func (w *Prepared) PSRows() *core.PSRows {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ps == nil {
		w.ps = core.BuildPSRows(w.branches())
	}
	return w.ps
}

// Sim is one simulation instance: a machine configuration bound to a trace
// and a value predictor. Zero value is not usable; construct with New.
type Sim struct {
	cfg  Config
	uops []isa.DynInst  // the trace's µops; a µop's trace index is its sequence number
	code []staticInst   // the trace's instructions, by PC (Prepared's, shared)
	pred core.Predictor // nil = baseline machine without value prediction

	// OnCommit, when non-nil, observes the trace index of every
	// architecturally committed µop in commit order — exactly once each,
	// squashes included. Differential tests replay the committed stream
	// against the functional emulator through it.
	OnCommit func(ti int)

	histPos uint64 // the history position fetch stands at: conditional branches before fetchIdx

	tage  *bpred.Tage
	btb   *bpred.BTB
	ras   *bpred.RAS
	l1i   *mem.Cache
	l1d   *mem.Cache
	l2    *mem.Cache
	mm    *dram.Memory
	ssets *memdep.StoreSets
	regs  *regfile.Files

	cycle int64

	rob    []robEntry
	head   int
	tail   int
	count  int
	iqUsed int
	lqUsed int
	sqUsed int

	// Per-cycle stage worklists. Together they replace full-ROB scans in
	// issue, writeback and IQ validation. waitIssue is a bitmap over ROB
	// slots (age order is slot order from the head); the lists are
	// age-ordered (see slotList).
	waitIssue slotSet  // dispatched, not yet issued
	waitWB    slotList // issued, writeback-side effects not yet processed
	iqHeld    slotList // still holding an IQ entry (inIQ)

	// The fast loop's issue filter (DESIGN.md §9), an iteration filter
	// only: it never changes what issues when. awake is the part of
	// waitIssue the fast loop scans. A waiting µop whose source producer
	// has not issued is parked on that producer's wakeup chain
	// (wakeHead[producer], linked through wakeNext) and out of awake until
	// the producer issues. recheckAt[slot] is a lower bound on the cycle an
	// awake µop could next be issue-eligible; the scan skips it until then.
	// Anything that can move a completion earlier or remove a producer (a
	// squash or a selective-reissue replay) re-arms the filter.
	awake     slotSet
	recheckAt []int64
	wakeHead  []int
	wakeNext  []int

	// In-flight memory µops (age-ordered): store-to-load forwarding walks
	// inFlightSt instead of every older ROB slot, and violation detection
	// walks inFlightLd instead of every younger one.
	inFlightLd slotList
	inFlightSt slotList

	// Fetch-to-dispatch decoupling queue as a fixed ring buffer: feq is
	// allocated once in New and reused for the whole run.
	feq     []feEntry
	feqHead int
	feqLen  int

	// pay is the payload ring, indexed by trace index & payMask (see
	// payload). Its length is a power of two of at least ROB plus fetch
	// queue capacity.
	pay     []payload
	payMask int

	fetchIdx     int
	nextFetchCyc int64
	fetchBlocked bool    // waiting for a mispredicted branch to resolve
	lastFetchCyc []int64 // per static PC, cycle of the last fetch (-1 = never)

	lastProd [isa.NumRegs]int // arch reg -> producing ROB slot (or noSlot)

	// Unpipelined divider pools.
	divFree   []int64
	fpDivFree []int64

	// reissueScratch is the reusable invalid-set of reissueDependents.
	reissueScratch []bool

	// Cached capability views of pred, resolved once instead of per fetch.
	ofeed core.OracleFeed
	sfeed core.SpecFeeder

	refLoop bool // reference loop: no issue filter, no idle skipping

	// Per-step transients feeding maybeSkipIdle (fastloop.go). progress is
	// set by any stage that changed machine state this cycle; issueBlocked
	// when issue saw a source-ready µop fail on a resource whose retry has
	// side effects or unknown timing (MSHR-full loads, width limits);
	// blockEvent is the earliest unblock cycle of purely-timestamped blocks
	// (busy dividers); stallCtr points at the dispatch stall counter charged
	// this cycle; doneActivity when a completion threshold crossed
	// (writeback processing, commit, or a squash), the only cycles IQ
	// validation can release on.
	progress     bool
	issueBlocked bool
	blockEvent   int64
	stallCtr     *uint64
	doneActivity bool

	// wbMinDone is a lower bound on the earliest doneCyc in waitWB: while it
	// is in the future the writeback scan is skipped entirely. It only
	// decreases outside the scan (insert-time min, 0 on squash), so
	// staleness costs a redundant scan, never a missed one.
	wbMinDone int64

	warmupUops uint64
	warmed     bool

	stats Stats
}

// New builds a simulator for the prepared trace w under cfg using pred for
// value prediction (nil disables VP: the baseline machine), which reads any
// history from w's rows (VTAGERows, PSRows).
func New(cfg Config, w *Prepared, pred core.Predictor) *Sim {
	mm := dram.New(cfg.DRAM)
	l2 := mem.NewCache(cfg.L2, nil, mm)
	pf := mem.NewStridePrefetcher(8, 8, l2)
	l2.AttachPrefetcher(pf)
	s := &Sim{
		cfg:       cfg,
		uops:      w.trace.Uops,
		code:      w.code,
		pred:      pred,
		tage:      bpred.NewTage(w.tage),
		btb:       bpred.NewBTB(12),
		ras:       &bpred.RAS{},
		l1i:       mem.NewCache(cfg.L1I, l2, nil),
		l1d:       mem.NewCache(cfg.L1D, l2, nil),
		l2:        l2,
		mm:        mm,
		ssets:     memdep.New(cfg.LogSSIT),
		regs:      regfile.NewFiles(cfg.IntRegs, cfg.FPRegs),
		rob:       make([]robEntry, cfg.ROB),
		divFree:   make([]int64, cfg.MulDivs),
		fpDivFree: make([]int64, cfg.FPMulDivs),
	}
	s.waitIssue = newSlotSet(cfg.ROB)
	s.awake = newSlotSet(cfg.ROB)
	s.recheckAt = make([]int64, cfg.ROB)
	s.wakeHead = make([]int, cfg.ROB)
	s.wakeNext = make([]int, cfg.ROB)
	for i := range s.wakeHead {
		s.wakeHead[i] = noSlot
	}
	s.waitWB = newSlotList(cfg.ROB)
	s.iqHeld = newSlotList(cfg.ROB)
	s.inFlightLd = newSlotList(cfg.ROB)
	s.inFlightSt = newSlotList(cfg.ROB)
	s.reissueScratch = make([]bool, cfg.ROB)
	// The ring must absorb one full fetch group past the high-water check at
	// the top of fetch (which only gates the start of a group).
	fw := cfg.FetchWidth
	if fw < 1 {
		fw = 1
	}
	s.feq = make([]feEntry, fetchBufCap+fw)
	n := 1
	for n < cfg.ROB+len(s.feq) {
		n <<= 1
	}
	s.pay = make([]payload, n)
	s.payMask = n - 1
	// Last-fetch-cycle table, indexed by static PC: a trace's PCs index its
	// code, so the table is as long as the code.
	s.lastFetchCyc = make([]int64, len(w.code))
	for i := range s.lastFetchCyc {
		s.lastFetchCyc[i] = -1
	}
	if pred != nil {
		s.ofeed, _ = pred.(core.OracleFeed)
		s.sfeed, _ = pred.(core.SpecFeeder)
	}
	for i := range s.lastProd {
		s.lastProd[i] = noSlot
	}
	return s
}

// NewForKernel is a convenience constructor: trace the named kernel for
// nUops, prepare the trace and build a simulator over it. pred is built
// before the trace, so it must read no per-trace rows.
func NewForKernel(cfg Config, kernel string, nUops int, pred core.Predictor) (*Sim, error) {
	k, ok := kernels.ByName(kernel)
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown kernel %q", kernel)
	}
	return New(cfg, Prepare(emu.Trace(k.Build(), nUops)), pred), nil
}

func (s *Sim) di(ti int) *isa.DynInst { return &s.uops[ti] }

func (s *Sim) entry(slot int) *robEntry { return &s.rob[slot] }

func (s *Sim) next(slot int) int {
	if slot++; slot == len(s.rob) {
		return 0
	}
	return slot
}

// slotAge converts a slot to its age order position (0 = oldest).
func (s *Sim) slotAge(slot int) int {
	d := slot - s.head
	if d < 0 {
		d += len(s.rob)
	}
	return d
}

// pl returns the payload of the µop at trace index ti.
func (s *Sim) pl(ti int) *payload { return &s.pay[ti&s.payMask] }

// insertByAge links slot into l keeping l's age order. It walks backwards
// from the tail: insertions overwhelmingly happen at or near the young end
// (fresh issues), so the walk is short.
func (s *Sim) insertByAge(l *slotList, slot int) {
	age := s.slotAge(slot)
	cur := l.tail
	for cur != listEnd && s.slotAge(cur) > age {
		cur = l.prev[cur]
	}
	l.insertAfter(cur, slot)
}

// Run simulates warmup+measure committed µops (capped by the trace length)
// and returns the statistics. It errors on a deadlocked machine — a model
// bug, not a workload property.
func (s *Sim) Run(warmup, measure uint64) (*Stats, error) {
	s.warmupUops = warmup
	if warmup == 0 {
		s.warmed = true
	}
	total := warmup + measure
	if t := uint64(len(s.uops)); total > t {
		total = t
	}
	return s.advanceTo(total)
}

// Advance continues a running simulation until n more µops commit (capped by
// the trace length) and returns the statistics. It is the steady-state
// benchmarking entry point: Run once to warm the machine, then time repeated
// Advance calls to measure the simulate loop free of construction, trace
// generation, and cold-start effects.
func (s *Sim) Advance(n uint64) (*Stats, error) {
	target := s.stats.Committed + n
	if t := uint64(len(s.uops)); target > t {
		target = t
	}
	return s.advanceTo(target)
}

// advanceTo steps the machine until total µops have committed.
func (s *Sim) advanceTo(total uint64) (*Stats, error) {
	lastCommitted := s.stats.Committed
	stuck := int64(0)
	for s.stats.Committed < total {
		s.step()
		s.maybeSkipIdle()
		if s.stats.Committed == lastCommitted {
			stuck++
			if stuck > 1_000_000 {
				return nil, errors.New("pipeline: no commit progress for 1M cycles (model deadlock)")
			}
		} else {
			stuck = 0
			lastCommitted = s.stats.Committed
		}
	}
	s.stats.Cycles = s.cycle
	return &s.stats, nil
}

// step advances the machine one cycle, processing stages in reverse pipeline
// order so same-cycle feed-through cannot happen.
func (s *Sim) step() {
	s.progress = false
	s.issueBlocked = false
	s.blockEvent = noEvent
	s.stallCtr = nil
	s.doneActivity = false
	s.commit()
	s.writeback()
	s.issue()
	s.dispatch()
	s.fetch()
	if s.cfg.Recovery == SelectiveReissue && (s.doneActivity || s.refLoop) {
		// IQ validation can only newly release when a completion threshold
		// crossed this cycle, which always coincides with writeback
		// processing, a commit, or a squash (doneActivity).
		s.releaseValidatedIQ()
	}
	s.cycle++
}

// ---------------------------------------------------------------- commit --

// commitLatency is the writeback+commit stage depth beyond execution: with
// the 2-cycle dispatch-to-issue gap it forms the paper's 4-cycle back-end.
const commitLatency = 2

func (s *Sim) commit() {
	for n := 0; n < s.cfg.RetireWidth && s.count > 0; n++ {
		e := s.entry(s.head)
		if !e.done || e.doneCyc+commitLatency > s.cycle {
			return
		}
		di := s.di(e.ti)
		pc := uint64(di.PC())

		if e.class == isa.ClassStore {
			// Stores write the cache from the post-commit store buffer; the
			// access is charged for bandwidth/MSHR stats but never blocks.
			s.l1d.Access(s.cycle, di.Addr, pc, true, true)
			s.ssets.StoreRetired(pc, uint64(e.ti))
		}

		// Train predictors with the architectural outcome, in commit order.
		if e.class == isa.ClassBranch {
			s.tage.Train(pc, di.Taken(), &s.pl(e.ti).bmeta)
			if s.warmed {
				s.stats.CondBranches++
				if e.brMispred {
					s.stats.CondMispredicts++
				}
			}
		}
		valueSquash := false
		if s.pred != nil && e.vpTried {
			s.pred.Train(pc, di.Result, &s.pl(e.ti).meta)
			if s.warmed {
				s.stats.Eligible++
				if e.conf {
					s.stats.Used++
					if e.predWrong {
						s.stats.UsedWrong++
					} else {
						s.stats.UsedCorrect++
					}
				}
			}
			if e.conf && e.predWrong {
				if e.predUsed && s.cfg.Recovery == SquashAtCommit {
					valueSquash = true
				} else if !e.predUsed && s.warmed {
					s.stats.WrongUnused++
				}
			}
		}

		if e.dst != isa.NoReg {
			s.regs.For(e.dst).Release()
		}
		if e.class == isa.ClassLoad {
			s.lqUsed--
			s.inFlightLd.remove(s.head)
		}
		if e.class == isa.ClassStore {
			s.sqUsed--
			s.inFlightSt.remove(s.head)
		}
		if e.inIQ {
			// Validation precedes commit by construction, but keep the IQ
			// worklist and counter consistent with the slot's reuse if a
			// holder ever reaches retirement.
			e.inIQ = false
			s.iqUsed--
			s.iqHeld.remove(s.head)
		}
		if !e.wbDone {
			// Writeback-side processing can be starved past retirement by
			// consecutive squash early-returns in writeback(). The effects
			// are moot once the µop commits, but the slot must leave the
			// worklist before it is reused for a younger µop.
			e.wbDone = true
			s.waitWB.remove(s.head)
		}
		// The committed entry can no longer forward through the ROB.
		if e.dst != isa.NoReg && s.lastProd[e.dst] == s.head {
			s.lastProd[e.dst] = noSlot
		}
		s.head = s.next(s.head)
		s.count--
		s.stats.Committed++
		s.progress = true
		s.doneActivity = true
		if s.OnCommit != nil {
			s.OnCommit(e.ti)
		}

		if !s.warmed && s.stats.Committed >= s.warmupUops {
			s.warmed = true
			s.stats.WarmCycles = s.cycle
			s.stats.WarmCommitted = s.stats.Committed
		}

		if valueSquash {
			// Pipeline squashing at commit: every younger µop is flushed and
			// fetch restarts after the mispredicted µop (Section 3.1.1).
			if s.warmed {
				s.stats.SquashValue++
			}
			s.squashFromAge(0, e.ti+1, s.cycle+1)
			return
		}
	}
}

// ------------------------------------------------------------- writeback --

// writeback processes µops whose execution completed this cycle: branch
// redirects, store-set violation checks, and value-misprediction detection.
// It walks only the issued-but-unprocessed worklist (in age order), not the
// whole ROB.
func (s *Sim) writeback() {
	if !s.refLoop && s.wbMinDone > s.cycle {
		return // nothing in waitWB can have completed yet
	}
	newMin := noEvent
	nxt := listEnd
	for slot := s.waitWB.head; slot != listEnd; slot = nxt {
		nxt = s.waitWB.next[slot]
		e := s.entry(slot)
		if e.doneCyc > s.cycle {
			if e.doneCyc < newMin {
				newMin = e.doneCyc
			}
			continue // still executing
		}
		e.wbDone = true
		s.waitWB.remove(slot)
		s.progress = true
		s.doneActivity = true

		// Branch resolution: redirect the stalled front-end.
		if e.brMispred {
			if s.warmed {
				s.stats.SquashBranch++
			}
			s.squashFromAge(s.slotAge(slot)+1, e.ti+1, e.doneCyc+1)
			s.fetchBlocked = false
			return // younger state just vanished; rescan next cycle
		}

		// Memory-order violation: a store whose address resolves after a
		// younger overlapping load already executed.
		if e.class == isa.ClassStore {
			if v := s.findViolatingLoad(slot, e); v != noSlot {
				ve := s.entry(v)
				if s.warmed {
					s.stats.SquashMemOrder++
				}
				s.ssets.Violation(uint64(s.di(ve.ti).PC()), uint64(s.di(e.ti).PC()))
				s.squashFromAge(s.slotAge(v), ve.ti, e.doneCyc+1)
				s.fetchBlocked = false
				return
			}
		}

		// Value misprediction under selective reissue: replay dependents
		// with the paper's idealistic 0-cycle repair.
		if e.conf && e.predWrong && s.cfg.Recovery == SelectiveReissue && e.predUsed {
			s.reissueDependents(slot)
			// Replayed µops (all younger than slot) left the worklist, which
			// may include the captured successor: restart from the head. The
			// already-processed prefix is gone from the list, so the rescan
			// visits exactly the remaining entries in the same age order.
			nxt = s.waitWB.head
			newMin = noEvent // restart the min over the rescanned list
		}
	}
	s.wbMinDone = newMin
}

// findViolatingLoad returns the oldest load younger than the store at slot
// that already executed with an overlapping address, or noSlot. Only
// in-flight loads are examined (oldest first), not every younger slot.
func (s *Sim) findViolatingLoad(storeSlot int, se *robEntry) int {
	saddr := s.di(se.ti).Addr &^ 7
	storeAge := s.slotAge(storeSlot)
	for slot := s.inFlightLd.head; slot != listEnd; slot = s.inFlightLd.next[slot] {
		if s.slotAge(slot) <= storeAge {
			continue // not younger than the store
		}
		e := s.entry(slot)
		if !e.issued {
			continue
		}
		if e.issueCyc >= se.doneCyc {
			continue // load issued after the store resolved: saw it
		}
		if s.di(e.ti).Addr&^7 == saddr {
			return slot
		}
	}
	return noSlot
}

// reissueDependents invalidates (transitively) every issued µop that
// consumed a value derived from the mispredicted producer at root, making
// them re-execute with correct inputs. The invalid-set scratch is a Sim
// field reused across calls. A replayed µop can complete earlier than its
// first execution did, so the issue filter's bounds are re-armed.
func (s *Sim) reissueDependents(root int) {
	invalid := s.reissueScratch
	clear(invalid)
	invalid[root] = true
	rootE := s.entry(root)
	for slot, n := s.next(root), s.slotAge(root)+1; n < s.count; slot, n = s.next(slot), n+1 {
		e := s.entry(slot)
		if !e.issued {
			continue
		}
		bad := false
		if e.dep1 != noSlot && invalid[e.dep1] && s.rob[e.dep1].ti == e.dep1TI {
			bad = s.consumedStale(e, e.dep1, root, rootE)
		}
		if !bad && e.dep2 != noSlot && invalid[e.dep2] && s.rob[e.dep2].ti == e.dep2TI {
			bad = s.consumedStale(e, e.dep2, root, rootE)
		}
		if !bad {
			continue
		}
		invalid[slot] = true
		e.issued = false
		e.done = false
		if !e.wbDone {
			s.waitWB.remove(slot) // was awaiting writeback under its stale result
		}
		e.wbDone = false
		e.fwdStore = false
		e.doneCyc = 0
		s.waitIssue.add(slot) // back on the issue worklist
		if s.warmed {
			s.stats.ReissuedUops++
		}
	}
	s.rearmIssue()
}

// consumedStale reports whether e's use of producer p was based on a stale
// value: for the root producer, only consumers that issued before its
// correct result existed; for transitively reissued producers, any issue.
func (s *Sim) consumedStale(e *robEntry, p int, root int, rootE *robEntry) bool {
	if p == root {
		return e.issueCyc < rootE.doneCyc
	}
	return true
}

// ---------------------------------------------------------------- issue ---

// issue selects up to IssueWidth source-ready µops, oldest first, subject
// to functional-unit and memory-port limits. The reference loop scans every
// waiting µop; the fast loop scans only the awake ones and skips those
// whose recheckAt lies ahead. Both skip only µops whose sources are
// provably unavailable, whose evaluation has no side effects, so they issue
// the same µops in the same cycles.
func (s *Sim) issue() {
	issued := 0
	aluUsed, mulUsed, fpUsed, fpMulUsed, memUsed := 0, 0, 0, 0, 0
	scan := s.awake
	if s.refLoop {
		scan = s.waitIssue
	}
	// Age order is slot order from the head: walk [head, len) then
	// [0, head). next re-reads the bitmap word on every call, so a µop
	// woken earlier in this scan is seen when the walk reaches it.
	end := len(s.rob)
	for slot := scan.next(s.head, end); issued < s.cfg.IssueWidth; slot = scan.next(slot+1, end) {
		if slot < 0 {
			if end == s.head {
				break
			}
			end = s.head
			if slot = scan.next(0, end); slot < 0 {
				break
			}
		}
		if !s.refLoop && s.recheckAt[slot] > s.cycle {
			continue // sources provably unavailable until then
		}
		e := s.entry(slot)
		ready, spec1, spec2 := s.srcStatus(e)
		if !ready {
			if !s.refLoop {
				s.park(slot, e)
			}
			continue
		}
		var lat int64
		switch e.class {
		case isa.ClassNop, isa.ClassHalt:
			lat = s.cfg.LatALU
			if aluUsed >= s.cfg.ALUs {
				s.issueBlocked = true
				continue
			}
			aluUsed++
		case isa.ClassIntAlu, isa.ClassBranch, isa.ClassJump, isa.ClassJumpInd, isa.ClassCall, isa.ClassRet:
			if aluUsed >= s.cfg.ALUs {
				s.issueBlocked = true
				continue
			}
			aluUsed++
			lat = s.cfg.LatALU
		case isa.ClassIntMul:
			if mulUsed >= s.cfg.MulDivs {
				s.issueBlocked = true
				continue
			}
			mulUsed++
			lat = s.cfg.LatMul
		case isa.ClassIntDiv:
			u := freeUnit(s.divFree, s.cycle)
			if u < 0 {
				s.blockUnitEvent(s.divFree)
				continue
			}
			s.divFree[u] = s.cycle + s.cfg.LatDiv
			lat = s.cfg.LatDiv
		case isa.ClassFPAlu:
			if fpUsed >= s.cfg.FPUs {
				s.issueBlocked = true
				continue
			}
			fpUsed++
			lat = s.cfg.LatFP
		case isa.ClassFPMul:
			if fpMulUsed >= s.cfg.FPMulDivs {
				s.issueBlocked = true
				continue
			}
			fpMulUsed++
			lat = s.cfg.LatFPMul
		case isa.ClassFPDiv:
			u := freeUnit(s.fpDivFree, s.cycle)
			if u < 0 {
				s.blockUnitEvent(s.fpDivFree)
				continue
			}
			s.fpDivFree[u] = s.cycle + s.cfg.LatFPDiv
			lat = s.cfg.LatFPDiv
		case isa.ClassLoad:
			if memUsed >= s.cfg.MemPorts {
				s.issueBlocked = true
				continue
			}
			l, ok := s.loadLatency(slot, e)
			if !ok {
				continue // blocked load: loadLatency flags impure retries itself
			}
			memUsed++
			lat = l
		case isa.ClassStore:
			if memUsed >= s.cfg.MemPorts {
				s.issueBlocked = true
				continue
			}
			memUsed++
			lat = 1 // address generation; data written at commit
		}

		e.issued = true
		s.progress = true
		e.issueCyc = s.cycle
		e.doneCyc = s.cycle + lat
		e.done = true // completion is timestamped; effects apply at doneCyc
		s.waitIssue.del(slot)
		s.awake.del(slot)
		if s.wakeHead[slot] != noSlot {
			s.wake(slot, e.doneCyc)
		}
		s.insertByAge(&s.waitWB, slot)
		if e.doneCyc < s.wbMinDone {
			s.wbMinDone = e.doneCyc
		}
		// Record prediction consumption for each source satisfied by a
		// not-yet-validated predicted value (folded out of srcStatus).
		if spec1 {
			s.rob[e.dep1].predUsed = true
			e.usedSpecSrc = true
		}
		if spec2 {
			s.rob[e.dep2].predUsed = true
			e.usedSpecSrc = true
		}
		issued++
		// IQ entries release at issue, except that under selective reissue
		// value-speculatively issued µops stay until validated (Section 7.2).
		if e.inIQ && (s.cfg.Recovery == SquashAtCommit || !e.usedSpecSrc) {
			e.inIQ = false
			s.iqUsed--
			s.iqHeld.remove(slot)
		}
	}
}

func freeUnit(units []int64, now int64) int {
	for i, t := range units {
		if t <= now {
			return i
		}
	}
	return -1
}

// blockUnitEvent records the earliest cycle a fully-busy divider pool frees
// as an idle-skip event. The busy check is pure and every free time was
// fixed at issue (all strictly in the future when freeUnit fails), so the
// blocked µop's retries until then are exact no-ops.
func (s *Sim) blockUnitEvent(units []int64) {
	for _, t := range units {
		if t < s.blockEvent {
			s.blockEvent = t
		}
	}
}

// srcStatus reports whether both sources of e are available this cycle —
// from committed state, a completed producer (full bypass), or a confident
// value prediction written to the PRF at the producer's dispatch — and, per
// source, whether availability rests on a not-yet-validated prediction. It
// fuses the former operandReady and markSpecUse passes into one walk of the
// producers; the caller applies the spec flags only if the µop really
// issues.
func (s *Sim) srcStatus(e *robEntry) (ready, spec1, spec2 bool) {
	if e.dep1 != noSlot {
		p := &s.rob[e.dep1]
		// p.ti != dep1TI means the producer committed: value is architectural.
		if p.ti == e.dep1TI && !(p.done && p.doneCyc <= s.cycle) {
			if !p.conf {
				return false, false, false
			}
			spec1 = true // predicted value available since dispatch
		}
	}
	if e.dep2 != noSlot {
		p := &s.rob[e.dep2]
		if p.ti == e.dep2TI && !(p.done && p.doneCyc <= s.cycle) {
			if !p.conf {
				return false, false, false
			}
			spec2 = true
		}
	}
	return true, spec1, spec2
}

// park takes e (at slot), whose srcStatus just failed, out of the fast
// loop's scan until it could be ready. A source whose producer has not
// issued parks it on that producer's wakeup chain, out of awake; wake
// returns it when the producer issues. Otherwise every unavailable source
// has a timestamped completion, and recheckAt waits for the latest.
func (s *Sim) park(slot int, e *robEntry) {
	p1, p2 := s.blocker(e.dep1, e.dep1TI), s.blocker(e.dep2, e.dep2TI)
	switch {
	case p1 != nil && !p1.issued:
		s.chain(slot, e.dep1)
	case p2 != nil && !p2.issued:
		s.chain(slot, e.dep2)
	default:
		at := s.cycle + 1
		if p1 != nil {
			at = max(at, p1.doneCyc)
		}
		if p2 != nil {
			at = max(at, p2.doneCyc)
		}
		s.recheckAt[slot] = at
	}
}

// blocker returns the producer at dep (trace index ti) if it leaves its
// operand unavailable this cycle: in flight, unpredicted and not yet
// complete. It returns nil for an available operand.
func (s *Sim) blocker(dep, ti int) *robEntry {
	if dep == noSlot {
		return nil
	}
	p := &s.rob[dep]
	if p.ti != ti || p.conf || (p.done && p.doneCyc <= s.cycle) {
		return nil
	}
	return p
}

// chain parks the waiting µop at slot on producer p's wakeup chain.
func (s *Sim) chain(slot, p int) {
	s.wakeNext[slot] = s.wakeHead[p]
	s.wakeHead[p] = slot
	s.recheckAt[slot] = noEvent
	s.awake.del(slot)
}

// wake returns the µops parked on producer p, which just issued to
// complete at done, to the scan: none can be ready before done.
func (s *Sim) wake(p int, done int64) {
	for w := s.wakeHead[p]; w != noSlot; w = s.wakeNext[w] {
		s.recheckAt[w] = done
		s.awake.add(w)
	}
	s.wakeHead[p] = noSlot
}

// rearmIssue resets the issue filter: every waiting µop is awake and
// rechecked at its next scan, and no wakeup chain remains. The filter's
// bounds assume producers only complete when their timestamps say and
// chains only name live producers; squashes and replays break both.
func (s *Sim) rearmIssue() {
	copy(s.awake, s.waitIssue)
	clear(s.recheckAt)
	for i := range s.wakeHead {
		s.wakeHead[i] = noSlot
	}
}

// loadLatency resolves a load at issue time: store-set blocking, LSQ
// forwarding, then the cache hierarchy. ok=false means "cannot issue now".
func (s *Sim) loadLatency(slot int, e *robEntry) (int64, bool) {
	di := s.di(e.ti)

	// Store-set discipline: wait for the predicted-conflicting store. This
	// reject happens before any cache access, so the retry is pure; the
	// unblock (the store's doneCyc crossing) is already an idle-skip event
	// via waitWB, so it need not pin issueBlocked.
	if e.hasDepStore {
		if ps := s.findInFlightStore(e.depStoreTI); ps != noSlot {
			p := s.entry(ps)
			if !(p.done && p.doneCyc <= s.cycle) {
				return 0, false
			}
		}
	}

	// Search older in-flight stores (youngest first) for a forwarding match.
	addr := di.Addr &^ 7
	age := s.slotAge(slot)
	for slot2 := s.inFlightSt.tail; slot2 != listEnd; slot2 = s.inFlightSt.prev[slot2] {
		if s.slotAge(slot2) >= age {
			continue // not older than the load
		}
		p := s.entry(slot2)
		if !(p.done && p.doneCyc <= s.cycle) {
			continue // unresolved older store: speculate past it (store sets)
		}
		if s.di(p.ti).Addr&^7 == addr {
			e.fwdStore = true
			return s.cfg.LatForward, true
		}
	}

	done, ok := s.l1d.Access(s.cycle, di.Addr, uint64(di.PC()), false, true)
	if !ok {
		// The rejected probe counted an MSHR stall and fed the prefetcher:
		// the retry itself has architectural side effects, so idle-skip must
		// keep stepping every cycle while this load is blocked.
		s.issueBlocked = true
		return 0, false
	}
	return done - s.cycle, true
}

// findInFlightStore resolves a store-set token (always a store's trace
// index) to its ROB slot, or noSlot if that store already committed. The
// ROB holds the contiguous trace-index range starting at the head's, so
// the slot is arithmetic.
func (s *Sim) findInFlightStore(ti int) int {
	d := ti - s.rob[s.head].ti
	if d < 0 || d >= s.count {
		return noSlot
	}
	if slot := s.head + d; slot < len(s.rob) {
		return slot
	}
	return s.head + d - len(s.rob)
}

// releaseValidatedIQ frees IQ entries of issued µops whose value-speculative
// sources have all been validated — the extra IQ pressure selective reissue
// costs (Section 7.2.1). Only current IQ holders are visited.
func (s *Sim) releaseValidatedIQ() {
	nxt := listEnd
	for slot := s.iqHeld.head; slot != listEnd; slot = nxt {
		nxt = s.iqHeld.next[slot]
		e := s.entry(slot)
		if !e.issued || !e.done || e.doneCyc > s.cycle {
			continue
		}
		if s.depValidated(e.dep1, e.dep1TI) && s.depValidated(e.dep2, e.dep2TI) {
			e.inIQ = false
			s.iqUsed--
			s.iqHeld.remove(slot)
			s.progress = true
		}
	}
}

func (s *Sim) depValidated(dep, depTI int) bool {
	if dep == noSlot {
		return true
	}
	p := &s.rob[dep]
	if p.ti != depTI {
		return true
	}
	return p.done && p.doneCyc <= s.cycle
}

// -------------------------------------------------------------- dispatch --

func (s *Sim) dispatch() {
	for n := 0; n < s.cfg.DispatchWidth && s.feqLen > 0; n++ {
		fe := &s.feq[s.feqHead]
		if fe.readyCyc > s.cycle {
			return
		}
		if s.count >= s.cfg.ROB {
			s.stall(&s.stats.StallROB)
			return
		}
		if s.iqUsed >= s.cfg.IQ {
			s.stall(&s.stats.StallIQ)
			return
		}
		pc := s.di(fe.ti).PC()
		st := &s.code[pc]
		if st.load && s.lqUsed >= s.cfg.LQ {
			s.stall(&s.stats.StallLQ)
			return
		}
		if st.store && s.sqUsed >= s.cfg.SQ {
			s.stall(&s.stats.StallSQ)
			return
		}
		if st.dst != isa.NoReg && !s.regs.For(st.dst).TryAlloc() {
			s.stall(&s.stats.StallRegs)
			return
		}

		// Fill the entry field by field: its payload stays in the ring.
		slot := s.tail
		e := s.entry(slot)
		e.ti = fe.ti
		e.issueCyc, e.doneCyc = 0, 0
		e.issued, e.done, e.wbDone, e.inIQ = false, false, false, true
		e.dep1, e.dep2, e.dep1TI, e.dep2TI = noSlot, noSlot, 0, 0
		e.vpTried, e.conf, e.predWrong, e.predUsed = fe.vpTried, fe.conf, fe.predWrong, false
		e.brMispred = fe.brMispred
		e.class, e.dst = st.class, st.dst
		e.fwdStore, e.usedSpecSrc = false, false
		e.hasDepStore, e.depStoreTI = false, 0
		s.iqUsed++
		s.waitIssue.add(slot)
		s.awake.add(slot)
		s.recheckAt[slot] = 0
		s.iqHeld.pushBack(slot)
		if st.load {
			s.lqUsed++
			s.inFlightLd.pushBack(slot)
		}
		if st.store {
			s.sqUsed++
			s.inFlightSt.pushBack(slot)
		}

		// Rename: resolve sources to in-flight producers.
		if st.src1 != isa.NoReg {
			if p := s.lastProd[st.src1]; p != noSlot {
				e.dep1, e.dep1TI = p, s.rob[p].ti
			}
		}
		if st.src2 != isa.NoReg {
			if p := s.lastProd[st.src2]; p != noSlot {
				e.dep2, e.dep2TI = p, s.rob[p].ti
			}
		}
		if st.dst != isa.NoReg {
			s.lastProd[st.dst] = slot
		}

		// Memory dependence prediction (store sets).
		if st.store {
			s.ssets.StoreFetched(uint64(pc), uint64(fe.ti))
		}
		if st.load {
			if tok, wait := s.ssets.LoadFetched(uint64(pc)); wait {
				e.hasDepStore, e.depStoreTI = true, int(tok)
			}
		}

		s.tail = s.next(s.tail)
		s.count++
		s.progress = true
		if s.feqHead++; s.feqHead == len(s.feq) {
			s.feqHead = 0
		}
		s.feqLen--
	}
}

func (s *Sim) stall(counter *uint64) {
	s.stallCtr = counter
	if s.warmed {
		*counter++
	}
}

// ---------------------------------------------------------------- fetch ---

// fetchBufCap bounds the decoupling queue between fetch and dispatch.
const fetchBufCap = 64

func (s *Sim) fetch() {
	if s.fetchBlocked || s.cycle < s.nextFetchCyc || s.fetchIdx >= len(s.uops) {
		return
	}
	// The high-water check gates the start of a group only; the ring is sized
	// fetchBufCap+FetchWidth so a full group always fits past it.
	if s.feqLen >= fetchBufCap {
		return
	}
	taken := 0
	linesTouched := 0
	var lastLine uint64 = ^uint64(0)

	for n := 0; n < s.cfg.FetchWidth; n++ {
		if s.fetchIdx >= len(s.uops) {
			return
		}
		di := s.di(s.fetchIdx)
		pc := di.PC()
		st := &s.code[pc]

		// Instruction cache: µops are 8 bytes, 8 per 64B line; a fetch group
		// may span two lines.
		lineAddr := uint64(pc) * 8 / mem.LineBytes
		if lineAddr != lastLine {
			if linesTouched == 2 {
				return // line bandwidth exhausted this cycle
			}
			if !s.l1i.Contains(uint64(pc) * 8) {
				done, ok := s.l1i.Access(s.cycle, uint64(pc)*8, uint64(pc), false, true)
				if s.warmed {
					s.stats.FetchIMissStalls++
				}
				if ok {
					s.nextFetchCyc = done
				} else {
					s.nextFetchCyc = s.cycle + 1
				}
				return
			}
			linesTouched++
			lastLine = lineAddr
		}

		// The predictors write their metadata straight into the µop's
		// payload slot; the front-end entry carries only the flags dispatch
		// needs.
		fi := s.feqHead + s.feqLen
		if fi >= len(s.feq) {
			fi -= len(s.feq)
		}
		fe := &s.feq[fi]
		*fe = feEntry{ti: s.fetchIdx, readyCyc: s.cycle + s.cfg.FrontDepth}
		pl := s.pl(s.fetchIdx)
		pl.histPos = s.histPos
		pl.rasTop = s.ras.Top()

		// Value prediction happens in the front-end for every µop producing
		// a register (Section 7.2).
		if s.pred != nil && st.vpEligible && (!s.cfg.PredictLoadsOnly || st.load) {
			fe.vpTried = true
			if s.ofeed != nil {
				s.ofeed.FeedActual(di.Result)
			}
			s.pred.Predict(uint64(pc), pl.histPos, &pl.meta)
			pl.meta.Seq = uint64(s.fetchIdx)
			fe.conf = pl.meta.Conf
			fe.predWrong = fe.conf && pl.meta.Pred != di.Result
			// Speculative occurrence tracking, following Section 7.1's
			// idealization: the paper assumes predictors deliver predictions
			// instantaneously with the correct last speculative occurrences
			// available ("o4-FCM is — unrealistically — able to deliver
			// predictions for two occurrences fetched in two consecutive
			// cycles"). The trace-driven equivalent feeds the occurrence's
			// actual outcome, which a real machine approximates through
			// execution-time repair of the speculative window.
			if s.sfeed != nil {
				s.sfeed.FeedSpec(uint64(pc), di.Result, uint64(s.fetchIdx))
			}
		}

		// Back-to-back statistic (Section 3.2).
		if s.warmed {
			s.stats.FetchedUops++
			if st.vpEligible {
				if last := s.lastFetchCyc[pc]; last >= 0 && last == s.cycle-1 {
					s.stats.B2BEligible++
				}
			}
		}
		s.lastFetchCyc[pc] = s.cycle

		stop := false
		if st.control {
			stop = s.fetchControl(di, st.class, fe, pl, &taken)
		}

		s.feqLen++
		s.fetchIdx++
		s.progress = true
		if stop {
			return
		}
	}
}

// fetchControl models branch prediction at fetch for one control µop. It
// returns true if fetch must stop after this µop (taken-branch budget,
// misprediction stall, or BTB redirect bubble).
func (s *Sim) fetchControl(di *isa.DynInst, class isa.Class, fe *feEntry, pl *payload, taken *int) bool {
	pc := uint64(di.PC())
	stop := false
	mispred := false
	btbBubble := false
	diTaken := di.Taken()

	switch class {
	case isa.ClassBranch:
		predTaken, m := s.tage.Predict(pc, s.histPos)
		pl.bmeta = m
		mispred = predTaken != diTaken
		if predTaken && diTaken {
			if _, hit := s.btb.Lookup(pc); !hit {
				btbBubble = true
			}
		}
		s.histPos++
	case isa.ClassJump, isa.ClassCall:
		if _, hit := s.btb.Lookup(pc); !hit {
			btbBubble = true
		}
		if class == isa.ClassCall {
			s.ras.Push(di.PC() + 1)
		}
	case isa.ClassJumpInd:
		tgt, hit := s.btb.Lookup(pc)
		mispred = !hit || tgt != di.NextPC
	case isa.ClassRet:
		mispred = s.ras.Pop() != di.NextPC
	}

	if diTaken {
		s.btb.Insert(pc, di.NextPC)
		*taken++
		if *taken >= s.cfg.TakenPerCyc {
			stop = true
		}
	}
	if mispred {
		fe.brMispred = true
		s.fetchBlocked = true
		return true
	}
	if btbBubble {
		// Direct branch with an unknown target: the decoder redirects a few
		// cycles later rather than waiting for execution.
		if s.warmed {
			s.stats.BTBBubbles++
		}
		s.nextFetchCyc = s.cycle + s.cfg.BTBMissBubble
		return true
	}
	return stop
}

// ---------------------------------------------------------------- squash --

// squashFromAge flushes the ROB from age position fromAge (0 = head,
// inclusive) to the tail, clears the front-end, and restarts fetch at trace
// index resumeTI at cycle resumeCyc. It restores the history position and
// the RAS, and repairs the rename producer table, the store-set LFST, and
// the value predictor's speculative state. Ages (not slots) disambiguate
// the full-ROB wrap case.
func (s *Sim) squashFromAge(fromAge int, resumeTI int, resumeCyc int64) {
	// Determine the checkpoint: the first squashed µop's fetch-time state,
	// or (if the ROB part is empty) the oldest front-end entry's.
	var histPos uint64
	var rasTop int
	restored := false

	if fromAge < s.count {
		slot := (s.head + fromAge) % len(s.rob)
		pl := s.pl(s.entry(slot).ti)
		histPos, rasTop, restored = pl.histPos, pl.rasTop, true
		// Free resources of every squashed entry.
		for cur, n := slot, fromAge; n < s.count; cur, n = s.next(cur), n+1 {
			se := s.entry(cur)
			if se.dst != isa.NoReg {
				s.regs.For(se.dst).Release()
			}
			if se.class == isa.ClassLoad {
				s.lqUsed--
			}
			if se.class == isa.ClassStore {
				s.sqUsed--
			}
			if se.inIQ {
				s.iqUsed--
			}
		}
		s.count = fromAge
		s.tail = slot
	}
	if !restored && s.feqLen > 0 {
		pl := s.pl(s.feq[s.feqHead].ti)
		histPos, rasTop, restored = pl.histPos, pl.rasTop, true
	}
	if restored {
		s.histPos = histPos
		s.ras.Restore(rasTop)
	}
	s.feqHead, s.feqLen = 0, 0

	// Rebuild the rename table and the stage worklists from the surviving
	// ROB prefix.
	for i := range s.lastProd {
		s.lastProd[i] = noSlot
	}
	clear(s.waitIssue)
	s.waitWB.clear()
	s.iqHeld.clear()
	s.inFlightLd.clear()
	s.inFlightSt.clear()
	for cur, n := s.head, 0; n < s.count; cur, n = s.next(cur), n+1 {
		e := s.entry(cur)
		if e.dst != isa.NoReg {
			s.lastProd[e.dst] = cur
		}
		if !e.issued {
			s.waitIssue.add(cur)
		}
		if e.issued && !e.wbDone {
			s.waitWB.pushBack(cur)
		}
		if e.inIQ {
			s.iqHeld.pushBack(cur)
		}
		if e.class == isa.ClassLoad {
			s.inFlightLd.pushBack(cur)
		}
		if e.class == isa.ClassStore {
			s.inFlightSt.pushBack(cur)
		}
	}

	// Rebuild the LFST from surviving stores; speculative value-predictor
	// state dies with the in-flight µops.
	s.ssets.Clear()
	for cur, n := s.head, 0; n < s.count; cur, n = s.next(cur), n+1 {
		e := s.entry(cur)
		if e.class == isa.ClassStore {
			s.ssets.StoreFetched(uint64(s.di(e.ti).PC()), uint64(e.ti))
		}
	}
	s.rearmIssue()
	if s.pred != nil {
		s.pred.Squash(uint64(resumeTI)) // a µop's sequence number is its trace index
	}

	s.fetchIdx = resumeTI
	s.nextFetchCyc = resumeCyc
	s.fetchBlocked = false
	s.wbMinDone = 0 // worklists changed mid-scan: force a fresh walk
	s.doneActivity = true
}

// Stats exposes the accumulated statistics (valid after Run).
func (s *Sim) Stats() *Stats { return &s.stats }

// Package core implements the paper's primary contribution: hardware value
// prediction with Forward Probabilistic Counter (FPC) confidence estimation
// and the VTAGE global-branch-history value predictor, together with every
// predictor the paper compares against — LVP, the 2-delta Stride predictor,
// an order-4 Finite Context Method predictor, the symmetric hybrids of
// Section 7.1.2, and the oracle predictor used for the Figure 3 upper bound.
//
// All predictors share one interface. Predictions are made in program order
// at fetch time, at the µop's global history position, and trained in
// program order at commit time with the architectural value,
// exactly as in the paper's commit-time-validation design. The Meta value
// returned by Predict carries per-prediction bookkeeping (provider component,
// fetch-time table indices and tags) back to Train, playing the role of the
// payload that travels with the µop through the real pipeline.
package core

// Value is a 64-bit data value, the unit of value prediction.
type Value = uint64

// NComp is the number of tagged VTAGE components; component 0 in Meta index
// slots is the base predictor, 1..NComp the tagged tables.
const NComp = 6

// CompMeta is the per-component bookkeeping captured at prediction time.
type CompMeta struct {
	Pred Value             // this component's best-guess prediction
	Conf bool              // and whether it was confident
	Prov int8              // provider: -1 base, 0..NComp-1 tagged, -2 none/nohit
	Idx  [NComp + 1]uint32 // fetch-time table indices (slot 0 = base)
	Tag  [NComp]uint16     // fetch-time tags for the tagged components
}

// Meta travels with a µop from Predict (fetch) to Train (commit).
type Meta struct {
	Seq  uint64 // dynamic occurrence id, stamped by the pipeline after Predict
	Pred Value  // the exposed prediction (best guess, valid even if !Conf)
	Conf bool   // true if the pipeline may use the prediction
	C1   CompMeta
	C2   CompMeta // second component for hybrids

	// GVH is the fetch-time global value history snapshot used by the gDiff
	// extension predictor (newest first).
	GVH [gdiffDepth]Value
}

// Predictor is a hardware value predictor. Implementations are not safe for
// concurrent use; the pipeline drives them from a single goroutine, mirroring
// the single in-order front-end of the machine.
type Predictor interface {
	// Predict fills m with the prediction for the next dynamic occurrence of
	// the µop at pc, at history position pos (the number of conditional
	// branches before it in the trace), whose history VTAGE and PS read
	// from their per-trace rows. It must be called in fetch order:
	// computational predictors advance their speculative per-PC state.
	//
	// m is caller-provided scratch (typically the µop's in-flight payload
	// slot) and must be fully overwritten — nothing survives from its
	// previous use. Passing the scratch in rather than returning a Meta keeps
	// the per-µop hot path free of large value copies and heap escapes.
	Predict(pc, pos uint64, m *Meta)

	// Train updates the predictor with the architectural result of the µop,
	// in commit order. m is the Meta returned by the matching Predict.
	Train(pc uint64, actual Value, m *Meta)

	// Squash discards speculative per-PC state (in-flight last values,
	// speculative value histories) belonging to occurrences with sequence
	// number >= fromSeq after a pipeline flush; older in-flight state
	// survives. This models the in-flight occurrence tracking Section 3.2
	// requires of computational and local-history predictors. The global
	// history needs no repair: the pipeline restores the position.
	Squash(fromSeq uint64)

	// Name identifies the predictor in tables and figures.
	Name() string

	// StorageBits returns the total storage cost in bits (Table 1).
	StorageBits() int
}

// OracleFeed is implemented by predictors that must be told the actual
// outcome before Predict — only the perfect predictor of Figure 3.
type OracleFeed interface {
	FeedActual(v Value)
}

// SpecFeeder is implemented by predictors that track the speculative last
// occurrence(s) of each µop (stride and FCM families). The pipeline feeds
// the value of each fetched occurrence — the paper's Section 7.1 idealized
// speculative window, where the predictor always sees the last speculative
// occurrences of every in-flight instruction — tagged with the occurrence's
// sequence number so squash repair is precise.
type SpecFeeder interface {
	FeedSpec(pc uint64, v Value, seq uint64)
}

// hashPC mixes a µop index into a well-distributed 64-bit hash
// (SplitMix64 finalizer).
func hashPC(pc uint64) uint64 {
	z := pc + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

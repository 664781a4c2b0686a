package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// Window sizes every workload simulates with: 20k warmup plus 80k measured
// µops per simulation. Golden digests hold for these windows only.
const (
	defaultWarmup  = 20_000
	defaultMeasure = 80_000
)

// corpusPerFamily generated programs per generator family, each crossed
// with corpusPredictors, make the seeded part of the sweep set.
const corpusPerFamily = 2

var corpusPredictors = []string{"lvp", "stride", "vtage"}

// groupFig4 names the builtin-kernel part of a spec set; generated programs
// are grouped by their generator family.
const groupFig4 = "fig4"

// specSet is the spec list a workload runs, in delivery order: the
// deduplicated fig4 set first, then the corpus. progs are the corpus
// programs every runner must register before a batch; group maps each
// workload string (kernel name or prog: reference) to its group.
type specSet struct {
	specs []harness.Spec
	nFig4 int
	progs []*isa.Program
	group map[string]string
}

// buildSet builds the fig4 set, plus the seeded corpus when corpus is set.
// The seed picks the corpus programs; the fig4 set is fixed.
func buildSet(seed uint64, corpus bool) (*specSet, error) {
	s := &specSet{group: make(map[string]string)}
	s.specs = harness.DedupSpecs(harness.Fig4Specs())
	s.nFig4 = len(s.specs)
	for _, k := range kernels.Names() {
		s.group[k] = groupFig4
	}
	if !corpus {
		return s, nil
	}
	for _, fam := range isa.Families() {
		for i := uint64(0); i < corpusPerFamily; i++ {
			p, err := isa.Generate(fam, seed*corpusPerFamily+i)
			if err != nil {
				return nil, err
			}
			id := harness.ProgramID(p)
			s.progs = append(s.progs, p)
			s.group[id] = fam
			for _, pred := range corpusPredictors {
				s.specs = append(s.specs, harness.Spec{Program: id, Predictor: pred, Counters: harness.FPC})
			}
		}
	}
	return s, nil
}

// uniqueSims counts the distinct simulations the set needs: every spec plus
// the baseline its speedup divides by.
func (s *specSet) uniqueSims() int {
	seen := make(map[harness.Spec]bool)
	for _, sp := range s.specs {
		sp = sp.Canonical()
		seen[sp] = true
		seen[sp.Baseline()] = true
	}
	return len(seen)
}

// digest is the sha256 over the records' JSON encodings, one per line, in
// delivery order.
func digest(recs []harness.Record) string {
	h := sha256.New()
	var b []byte
	for _, r := range recs {
		b, _ = harness.AppendRecordJSON(b[:0], r)
		b = append(b, '\n')
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workloadOf extracts the workload (kernel name or prog: reference) from a
// canonical spec identity, "<workload>/<predictor>/...".
func workloadOf(identity string) string {
	w, _, _ := strings.Cut(identity, "/")
	return w
}

// expected holds the digests a run's records must match; empty fields are
// not checked.
type expected struct {
	fig4      string   // the fig4 part of any spec set
	full      string   // the whole sweep set
	shardSims []uint64 // fleet-cold per-shard simulations
}

// expectFor returns the golden values for the run's seed and windows.
func expectFor(c *config) expected {
	if c.expect != nil {
		return *c.expect
	}
	if c.warmup != defaultWarmup || c.measure != defaultMeasure {
		return expected{}
	}
	e := expected{fig4: goldenFig4Digest}
	if c.seed == defaultSeed {
		e.full = goldenSweepDigest
		if c.fleetPort == defaultFleetPort {
			e.shardSims = goldenShardSims
		}
	}
	return e
}

// checkRecords compares one batch's records with the golden digests and
// returns a description of every mismatch.
func checkRecords(set *specSet, recs []harness.Record, want expected) []string {
	if len(recs) != len(set.specs) {
		return []string{fmt.Sprintf("got %d records for %d specs", len(recs), len(set.specs))}
	}
	var bad []string
	if want.fig4 != "" {
		if d := digest(recs[:set.nFig4]); d != want.fig4 {
			bad = append(bad, fmt.Sprintf("fig4 digest %s, want %s", d, want.fig4))
		}
	}
	if want.full != "" && len(set.progs) > 0 {
		if d := digest(recs); d != want.full {
			bad = append(bad, fmt.Sprintf("sweep digest %s, want %s", d, want.full))
		}
	}
	return bad
}

// firstDiff returns the index of the first record where a and b differ, or
// -1 when they are identical.
func firstDiff(a, b []harness.Record) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

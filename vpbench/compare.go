package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// compareFiles compares a parent and a change result file workload by
// workload: for every end-to-end metric both medians with their quartiles
// and a verdict against the metric's bound in BENCHMARK.json, and for the
// model's simulated metrics (traced results) exact equality.
func compareFiles(parentPath, changePath, benchPath string, w io.Writer) error {
	bf, err := loadBenchmarkFile(benchPath)
	if err != nil {
		return err
	}
	bounds := bf.bounds()
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	byName := make(map[string]*runResult)
	for _, r := range parent {
		byName[r.Workload] = r
	}
	matched := 0
	fmt.Fprintf(w, "%-11s %-18s %28s %28s %8s  %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "delta", "verdict")
	for _, c := range change {
		p := byName[c.Workload]
		if p == nil {
			continue
		}
		matched++
		for _, d := range endToEnd {
			pd, okP := p.EndToEnd[d.Name]
			cd, okC := c.EndToEnd[d.Name]
			if !okP || !okC {
				continue
			}
			bound, ok := bounds[d.Name]
			if !ok {
				return fmt.Errorf("%s has no bound for %s", benchPath, d.Name)
			}
			delta := 0.0
			if pd.Median != 0 {
				delta = (cd.Median - pd.Median) / math.Abs(pd.Median)
			}
			fmt.Fprintf(w, "%-11s %-18s %28s %28s %+7.1f%%  %s\n", c.Workload, d.Name,
				fmtDist(pd), fmtDist(cd), 100*delta, verdict(d, bound, pd, cd))
		}
		for _, d := range perLayer {
			if !strings.HasPrefix(d.Name, "model.") || p.PerLayer == nil || c.PerLayer == nil {
				continue
			}
			pv, cv := p.PerLayer[d.Name], c.PerLayer[d.Name]
			v := "equal"
			if pv != cv {
				v = "DIFFERENT"
			}
			fmt.Fprintf(w, "%-11s %-18s %28g %28g %8s  %s\n", c.Workload, d.Name, pv, cv, "", v)
		}
	}
	if matched == 0 {
		return fmt.Errorf("%s and %s share no workload", parentPath, changePath)
	}
	return nil
}

func fmtDist(d dist) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", d.Median, d.Q1, d.Q3)
}

// verdict classifies a change against its parent for one metric. Worse:
// the change's median is worse by more than the bound. Better: better by
// more than the parent's own spread, with the quartile ranges apart.
// Unresolved: either side spreads wider than the bound, unless every change
// sample beats (or loses to) every parent sample. Otherwise unchanged.
func verdict(d metricDef, bound float64, p, c dist) string {
	// worse > 0 means the change is worse, as a share of the parent median.
	worse := 0.0
	if p.Median != 0 {
		worse = (c.Median - p.Median) / math.Abs(p.Median)
	}
	if d.Better == "higher" {
		worse = -worse
	}
	better := func(a, b float64) bool { // a better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	all := func(cs, ps []float64, f func(a, b float64) bool) bool {
		for _, x := range cs {
			for _, y := range ps {
				if !f(x, y) {
					return false
				}
			}
		}
		return len(cs) > 0 && len(ps) > 0
	}
	if max(p.spread(), c.spread()) > bound {
		switch {
		case all(c.Samples, p.Samples, better):
			return "better"
		case all(p.Samples, c.Samples, better):
			return "worse"
		}
		return "unresolved"
	}
	apart := c.Q3 < p.Q1 || c.Q1 > p.Q3
	switch {
	case worse > bound:
		return "worse"
	case -worse > p.spread() && apart:
		return "better"
	}
	return "unchanged"
}

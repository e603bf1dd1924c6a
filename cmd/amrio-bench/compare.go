package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts -compare hands out per workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // b is worse than a by more than the bound
	verdictUnresolved = "unresolved" // within the bound, but a run's own spread is wider than it
	verdictDiffers    = "differs"    // an exact-repeat value changed
)

// metricSpread is a metric's within-run inter-quartile spread as a
// share of its value; 0 when the run recorded no quartiles.
func metricSpread(m *metricRecord) float64 {
	if m == nil || m.Q1 == nil || m.Q3 == nil || m.Value == 0 {
		return 0
	}
	return (*m.Q3 - *m.Q1) / math.Abs(m.Value)
}

// judge compares one end-to-end metric of run b against run a.
func judge(a, b *metricRecord) (rel float64, verdict string) {
	worse := b.Value - a.Value
	if a.Better == higher {
		worse = -worse
	}
	if a.Value != 0 {
		rel = (b.Value - a.Value) / math.Abs(a.Value)
	}
	switch {
	case a.AbsBound > 0:
		if worse > a.AbsBound {
			return rel, verdictRegressed
		}
	case a.Value != 0 && worse/math.Abs(a.Value) > a.Bound:
		return rel, verdictRegressed
	case math.Max(metricSpread(a), metricSpread(b)) > a.Bound:
		return rel, verdictUnresolved
	}
	return rel, verdictOK
}

// compareFiles prints, per workload × end-to-end metric, both values,
// the relative difference, the bound and a verdict, then checks every
// exact-repeat per-layer value for equality. It reports whether
// anything regressed or an exact value changed.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadRunRecord(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRunRecord(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(out, "note: seeds differ (%d vs %d): exact-repeat values are not comparable and are skipped\n", a.Seed, b.Seed)
	}
	bad := false
	fmt.Fprintf(out, "%-13s %-14s %14s %14s %9s %8s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := workloadRecordByName(b, wa.Name)
		if wb == nil {
			fmt.Fprintf(out, "%-13s missing from %s\n", wa.Name, pathB)
			bad = true
			continue
		}
		for j := range wa.EndToEnd {
			ma := &wa.EndToEnd[j]
			mb := wb.metric(ma.Name)
			if mb == nil {
				fmt.Fprintf(out, "%-13s %-14s missing from %s\n", wa.Name, ma.Name, pathB)
				bad = true
				continue
			}
			rel, verdict := judge(ma, mb)
			bound := fmt.Sprintf("%.0f%%", 100*ma.Bound)
			if ma.AbsBound > 0 {
				bound = fmt.Sprintf("%.2g abs", ma.AbsBound)
			}
			fmt.Fprintf(out, "%-13s %-14s %14.6g %14.6g %+8.2f%% %8s  %s\n",
				wa.Name, ma.Name, ma.Value, mb.Value, 100*rel, bound, verdict)
			if verdict == verdictRegressed {
				bad = true
			}
		}
		if a.Seed != b.Seed {
			continue
		}
		for j := range wa.PerLayer {
			ma := &wa.PerLayer[j]
			mb := wb.metric(ma.Name)
			if !ma.Exact || mb == nil || ma.Value == mb.Value {
				continue
			}
			fmt.Fprintf(out, "%-13s %-30s %.17g != %.17g  %s\n", wa.Name, ma.Name, ma.Value, mb.Value, verdictDiffers)
			bad = true
		}
	}
	return bad, nil
}

func workloadRecordByName(r runRecord, name string) *workloadRecord {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

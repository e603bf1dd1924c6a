package report

import (
	"fmt"

	"amrproxyio/internal/iosim"
)

// Two-phase aggregation reporting: the same case run under different
// iosim.AggregationSpec layouts trades per-file open/metadata cost
// against gather time and write-stream concentration, and the winning
// layout flips across storage stacks (the paper's MIF-vs-collective
// crossover). AggregationReport renders the side-by-side comparison with
// deltas against the first layout, the way StorageReport compares tiers.

// AggregationSummary is the per-layout reduction of one run's ledger.
type AggregationSummary struct {
	Name   string
	Bursts int
	Bytes  int64
	// Ranks is the fan-in before aggregation: distinct ranks producing
	// data records. Writers is the fan-in after: distinct ranks paying a
	// file open (under aggregation, only aggregators do). Targets counts
	// the distinct storage targets the data fanned into.
	Ranks   int
	Writers int
	Targets int

	WallSeconds float64 // sum over bursts of the burst wall time

	// The three-way duration split across all data records: intra-node
	// gather time, file-open/metadata time, and the write-phase
	// remainder.
	GatherSeconds float64
	OpenSeconds   float64
	WriteSeconds  float64
}

// SummarizeAggregation reads a run's AggregationSummary off its finished
// fold. Directory (metadata) records are excluded from the fan-in counts
// and the duration split — they go to the metadata service, not a data
// target, and carry no target label — but still shape the burst walls,
// like everywhere else.
func SummarizeAggregation(name string, f *iosim.CharacterizeFold) AggregationSummary {
	p := f.Profile()
	s := AggregationSummary{
		Name: name, Bytes: p.TotalBytes,
		Ranks: p.Ranks, Writers: p.Writers, Targets: len(f.TargetBytes()),
	}
	s.GatherSeconds, s.OpenSeconds, s.WriteSeconds = f.DurationSplit()
	for _, b := range f.Bursts() {
		s.Bursts++
		s.WallSeconds += b.WallSeconds
	}
	return s
}

// AggregationReport renders the per-layout comparison table. The first
// summary is the baseline (conventionally the direct pattern): wall
// deltas are relative to it, so the crossover — which layout wins on
// this storage stack — reads straight off the dwall column.
func AggregationReport(sums []AggregationSummary) string {
	if len(sums) == 0 {
		return "aggregation report: no runs\n"
	}
	base := sums[0]
	rows := make([][]string, 0, len(sums))
	for _, s := range sums {
		dWall := "-"
		if base.WallSeconds > 0 {
			dWall = fmt.Sprintf("%+.1f%%", 100*(s.WallSeconds-base.WallSeconds)/base.WallSeconds)
		}
		rows = append(rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.Bursts),
			HumanBytes(s.Bytes),
			fmt.Sprintf("%d", s.Ranks),
			fmt.Sprintf("%d", s.Writers),
			fmt.Sprintf("%d", s.Targets),
			fmt.Sprintf("%.4gs", s.WallSeconds),
			dWall,
			fmt.Sprintf("%.4gs", s.GatherSeconds),
			fmt.Sprintf("%.4gs", s.OpenSeconds),
			fmt.Sprintf("%.4gs", s.WriteSeconds),
		})
	}
	out := "aggregation comparison (fan-in: ranks -> writers)\n"
	out += Table([]string{
		"layout", "bursts", "bytes", "ranks", "writers", "targets",
		"wall", "dwall", "gather", "open", "write",
	}, rows)
	if winner := BestAggregation(sums); winner != "" && winner != base.Name {
		out += fmt.Sprintf("crossover: %q beats the %q baseline on this stack\n", winner, base.Name)
	}
	return out
}

// BestAggregation names the layout with the smallest total burst wall;
// empty for an empty comparison. The integration tests assert the winner
// flips across storage stacks (the crossover).
func BestAggregation(sums []AggregationSummary) string {
	best := ""
	bestWall := 0.0
	for _, s := range sums {
		if best == "" || s.WallSeconds < bestWall {
			best, bestWall = s.Name, s.WallSeconds
		}
	}
	return best
}

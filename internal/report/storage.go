package report

import (
	"fmt"

	"amrproxyio/internal/iosim"
)

// Storage-tier experiment reporting: the same case run against different
// iosim storage stacks ("gpfs" | "bb" | "bb+gpfs") produces different
// burst walls, per-tier byte splits, drain tails, and stall stragglers.
// StorageReport renders the side-by-side comparison with deltas against
// the first stack, the way DistReport compares placements.

// StorageSummary is the per-stack reduction of one run's ledger.
// Ledgers written under a single-tier model (no tier labels) leave the
// burst-buffer fields zero.
type StorageSummary struct {
	Storage     string
	Bursts      int
	Bytes       int64
	WallSeconds float64 // sum over bursts of the burst wall time

	BBBytes    int64 // bytes absorbed at burst-buffer speed
	SpillBytes int64 // bytes that stalled through to the GPFS tier

	MaxBBFill    float64 // peak buffer-partition occupancy fraction
	StallSeconds float64 // sum over bursts of the max-rank stall time
	StallRanks   int     // stall stragglers summed over bursts

	DrainSeconds float64 // sum over bursts of the post-burst drain tails
	// OverlapSeconds is the portion of DrainSeconds hidden under the
	// compute gaps between bursts: each burst's drain tail overlaps the
	// gap to the next burst's first write. Back-to-back bursts (no
	// modeled compute time) overlap nothing.
	OverlapSeconds float64
}

// SummarizeStorage reads a run's StorageSummary off its finished fold.
// Drain overlap comes from the fold's per-step spans: each burst's drain
// tail is hidden under the gap to the next burst's first write.
func SummarizeStorage(storage string, f *iosim.CharacterizeFold) StorageSummary {
	s := StorageSummary{Storage: storage, Bytes: f.Profile().TotalBytes}
	bursts := f.Bursts()
	for i, b := range bursts {
		s.Bursts++
		s.WallSeconds += b.WallSeconds
		s.BBBytes += b.BBBytes
		s.SpillBytes += b.SpillBytes
		if b.MaxBBFill > s.MaxBBFill {
			s.MaxBBFill = b.MaxBBFill
		}
		s.StallSeconds += b.StallSeconds
		s.StallRanks += b.StallRanks
		s.DrainSeconds += b.DrainSeconds
		if b.DrainSeconds > 0 && i+1 < len(bursts) {
			if gap := f.StepSpan(bursts[i+1].Step).Start - f.StepSpan(b.Step).End; gap > 0 {
				s.OverlapSeconds += min(gap, b.DrainSeconds)
			}
		}
	}
	return s
}

// StorageReport renders the per-stack comparison table. The first
// summary is the baseline: wall deltas are relative to it. Summaries
// without tier labels (single-tier runs) show zeros in the burst-buffer
// columns, which is the comparison's point.
func StorageReport(sums []StorageSummary) string {
	if len(sums) == 0 {
		return "storage report: no runs\n"
	}
	base := sums[0]
	tiered := false
	rows := make([][]string, 0, len(sums))
	for _, s := range sums {
		dWall := "-"
		if base.WallSeconds > 0 {
			dWall = fmt.Sprintf("%+.1f%%", 100*(s.WallSeconds-base.WallSeconds)/base.WallSeconds)
		}
		if s.BBBytes > 0 || s.SpillBytes > 0 {
			tiered = true
		}
		name := s.Storage
		if name == "" {
			name = "default"
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", s.Bursts),
			HumanBytes(s.Bytes),
			fmt.Sprintf("%.4gs", s.WallSeconds),
			dWall,
			HumanBytes(s.BBBytes),
			HumanBytes(s.SpillBytes),
			fmt.Sprintf("%.3f", s.MaxBBFill),
			fmt.Sprintf("%d", s.StallRanks),
			fmt.Sprintf("%.4gs", s.StallSeconds),
			fmt.Sprintf("%.4gs", s.DrainSeconds),
			fmt.Sprintf("%.4gs", s.OverlapSeconds),
		})
	}
	out := Table([]string{
		"storage", "bursts", "bytes", "wall", "dwall",
		"bb-bytes", "spill", "peak-fill", "stall-ranks", "stall", "drain", "overlap",
	}, rows)
	if !tiered {
		out += "(single-tier runs only: sweep a \"bb\"/\"bb+gpfs\" storage to populate the buffer columns)\n"
	}
	return out
}

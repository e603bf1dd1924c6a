package report

import (
	"fmt"

	"amrproxyio/internal/iosim"
)

// Distribution-mapping experiment reporting: the same case run under
// different amr.DistStrategy placements (and optionally the inter-burst
// layout reorganization) produces different burst skew, stragglers, and
// per-target fan-in on the per-link topology model. DistReport renders
// the side-by-side comparison with deltas against the first strategy.

// DistSummary is the per-strategy reduction of one run's ledger — the
// placement-sensitive quantities the comparison table shows. Ledgers
// written under the aggregate model (no link labels) leave the topology
// fields zero.
type DistSummary struct {
	Dist        string
	Bursts      int
	Bytes       int64
	WallSeconds float64 // sum over bursts of the burst wall time

	MaxLinkSkew  float64 // worst per-burst LinkSkew
	MeanLinkSkew float64 // mean over bursts with link labels
	MaxNodeSkew  float64
	Stragglers   int // total over bursts

	TargetsUsed     int
	MaxTargetBytes  int64
	TargetImbalance float64 // max/mean bytes per target (1 = balanced)
}

// SummarizeDist reads a run's DistSummary off its finished fold.
func SummarizeDist(dist string, f *iosim.CharacterizeFold) DistSummary {
	s := DistSummary{Dist: dist, Bytes: f.Profile().TotalBytes}
	linked := 0
	for _, b := range f.Bursts() {
		s.Bursts++
		s.WallSeconds += b.WallSeconds
		s.Stragglers += b.Stragglers
		if b.Nodes == 0 {
			continue
		}
		linked++
		s.MeanLinkSkew += b.LinkSkew
		if b.LinkSkew > s.MaxLinkSkew {
			s.MaxLinkSkew = b.LinkSkew
		}
		if b.NodeSkew > s.MaxNodeSkew {
			s.MaxNodeSkew = b.NodeSkew
		}
	}
	if linked > 0 {
		s.MeanLinkSkew /= float64(linked)
	}
	if targets := f.TargetBytes(); len(targets) > 0 {
		s.TargetsUsed = len(targets)
		var total int64
		for _, b := range targets {
			total += b
			if b > s.MaxTargetBytes {
				s.MaxTargetBytes = b
			}
		}
		if mean := float64(total) / float64(len(targets)); mean > 0 {
			s.TargetImbalance = float64(s.MaxTargetBytes) / mean
		}
	}
	return s
}

// DistReport renders the per-strategy comparison table. The first
// summary is the baseline: wall and link-skew deltas are relative to it.
// Summaries without link labels (aggregate-model runs) show only the
// placement-independent columns plus a note.
func DistReport(sums []DistSummary) string {
	if len(sums) == 0 {
		return "dist report: no runs\n"
	}
	base := sums[0]
	labeled := false
	rows := make([][]string, 0, len(sums))
	for _, s := range sums {
		dWall := "-"
		if base.WallSeconds > 0 {
			dWall = fmt.Sprintf("%+.1f%%", 100*(s.WallSeconds-base.WallSeconds)/base.WallSeconds)
		}
		dSkew := "-"
		if base.MaxLinkSkew > 0 {
			dSkew = fmt.Sprintf("%+.3f", s.MaxLinkSkew-base.MaxLinkSkew)
		}
		if s.MaxLinkSkew > 0 || s.TargetsUsed > 0 {
			labeled = true
		}
		rows = append(rows, []string{
			s.Dist,
			fmt.Sprintf("%d", s.Bursts),
			HumanBytes(s.Bytes),
			fmt.Sprintf("%.4gs", s.WallSeconds),
			dWall,
			fmt.Sprintf("%.3f", s.MaxLinkSkew),
			dSkew,
			fmt.Sprintf("%.3f", s.MaxNodeSkew),
			fmt.Sprintf("%d", s.Stragglers),
			fmt.Sprintf("%.3f", s.TargetImbalance),
			HumanBytes(s.MaxTargetBytes),
		})
	}
	out := Table([]string{
		"dist", "bursts", "bytes", "wall", "dwall",
		"link-skew", "dskew", "node-skew", "stragglers", "tgt-imb", "max-tgt",
	}, rows)
	if !labeled {
		out += "(aggregate model: run with a topology to populate the per-link columns)\n"
	}
	return out
}

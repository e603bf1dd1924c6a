package report

import (
	"fmt"

	"amrproxyio/internal/resilience"
)

// Mitigation reporting: the same faulted case run with and without a
// resilience.Policy (a two-variant campaign.Axis over Case.Mitigate)
// produces different retry-storm, lost-work, and forward-progress
// numbers. MitigationReport renders the side-by-side comparison plus the
// per-pair deltas the CI smoke gate checks; each pair is one group of
// campaign.Groups along that axis.

// MitigationSummary pairs a config name with its evaluated mitigation
// outcome.
type MitigationSummary struct {
	Name string
	resilience.Outcome
}

// MitigationPair is one (unmitigated, mitigated) comparison of the same
// base case.
type MitigationPair struct {
	Base        string
	Unmitigated MitigationSummary
	Mitigated   MitigationSummary
}

// MitigationTable renders the per-config mitigation summary table.
func MitigationTable(sums []MitigationSummary) string {
	if len(sums) == 0 {
		return "mitigation report: no runs\n"
	}
	rows := make([][]string, 0, len(sums))
	for _, s := range sums {
		rows = append(rows, []string{
			s.Name,
			fmt.Sprintf("%.4gs", s.RetryStormSeconds),
			fmt.Sprintf("%.4gs", s.FaultCriticalSeconds),
			fmt.Sprintf("%.4gs", s.Resilience.LostWorkSeconds),
			fmt.Sprintf("%d", s.MitigatedWrites),
			fmt.Sprintf("%d", s.Stats.AdaptiveCheckpoints),
			fmt.Sprintf("%d", s.Stats.ShedBursts),
			HumanBytes(s.Stats.ShedBytes),
			fmt.Sprintf("%.3f", s.ForwardProgress),
		})
	}
	return Table([]string{
		"config", "retry-storm", "fault-crit", "lost-work", "mit-writes",
		"adapt-ckpts", "shed", "shed-bytes", "fwd-progress",
	}, rows)
}

// MitigationReport renders the mitigated-vs-unmitigated comparison: the
// summary table for both members of every pair, then one delta line per
// pair. The delta line carries the literal "fwd-progress delta:" marker
// (signed) the mitigation-smoke CI job greps — a negative delta means
// the policy engine made things worse and fails the gate.
func MitigationReport(pairs []MitigationPair) string {
	if len(pairs) == 0 {
		return "mitigation report: no runs\n"
	}
	sums := make([]MitigationSummary, 0, 2*len(pairs))
	for _, p := range pairs {
		sums = append(sums, p.Unmitigated, p.Mitigated)
	}
	out := MitigationTable(sums)
	for _, p := range pairs {
		out += fmt.Sprintf("%s: fwd-progress delta: %+.3f (%.3f -> %.3f), retry-storm %.4gs -> %.4gs, mitigated writes %d\n",
			p.Base,
			p.Mitigated.ForwardProgress-p.Unmitigated.ForwardProgress,
			p.Unmitigated.ForwardProgress, p.Mitigated.ForwardProgress,
			p.Unmitigated.RetryStormSeconds, p.Mitigated.RetryStormSeconds,
			p.Mitigated.MitigatedWrites)
	}
	return out
}

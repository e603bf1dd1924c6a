package report

import (
	"fmt"

	"amrproxyio/internal/faults"
)

// Resilience reporting: the same case run under different fault plans
// (a campaign.Axis over Case.Faults) produces different lost-work,
// failover, and restart-read costs. ResilienceReport renders the
// side-by-side comparison the way StorageReport compares tier stacks.

// ResilienceSummary pairs a config name with its analyzed recovery
// model.
type ResilienceSummary struct {
	Name string
	faults.Resilience
}

// ResilienceReport renders the per-config recovery comparison table.
// Fault-free configs show a forward-progress rate of 1 and zeros
// elsewhere, which is the comparison's point.
func ResilienceReport(sums []ResilienceSummary) string {
	if len(sums) == 0 {
		return "resilience report: no runs\n"
	}
	young := false
	rows := make([][]string, 0, len(sums))
	for _, s := range sums {
		if s.YoungIntervalSeconds > 0 {
			young = true
		}
		rows = append(rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.Checkpoints),
			fmt.Sprintf("%d", s.Interrupts),
			fmt.Sprintf("%.4gs", s.LostWorkSeconds),
			fmt.Sprintf("%.4gs", s.RestartReadSeconds),
			fmt.Sprintf("%d", s.Retries),
			fmt.Sprintf("%d", s.Failovers),
			fmt.Sprintf("%.4gs", s.FaultSeconds),
			fmt.Sprintf("%.3f", s.ForwardProgress),
		})
	}
	out := Table([]string{
		"config", "ckpts", "interrupts", "lost-work", "restart-read",
		"retries", "failovers", "fault-time", "fwd-progress",
	}, rows)
	if young {
		for _, s := range sums {
			if s.YoungIntervalSeconds > 0 {
				out += fmt.Sprintf("%s: Young/Daly optimal checkpoint interval %.4gs (MTBF-driven)\n",
					s.Name, s.YoungIntervalSeconds)
			}
		}
	}
	return out
}

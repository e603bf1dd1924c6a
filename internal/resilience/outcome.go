package resilience

import (
	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
)

// Stats counts what the mitigation engine actually did during a run.
// The zero value means no policy fired; a nil *Stats means no engine
// ran at all (zero policy).
type Stats struct {
	// AdaptiveCheckpoints counts checkpoints the adaptive cadence
	// triggered (Young/Daly-retimed, not fixed-interval).
	AdaptiveCheckpoints int `json:"adaptive_checkpoints,omitempty"`
	// ShedBursts / ShedBytes count plot bursts degraded-mode output
	// skipped and the nominal bytes they would have written.
	ShedBursts int   `json:"shed_bursts,omitempty"`
	ShedBytes  int64 `json:"shed_bytes,omitempty"`
	// QuarantinedTargets counts distinct targets whose circuit breaker
	// ever opened.
	QuarantinedTargets int `json:"quarantined_targets,omitempty"`
	// ObservedMTBFSeconds is the engine's final online MTBF estimate
	// (0 before the first observed interrupt).
	ObservedMTBFSeconds float64 `json:"observed_mtbf_seconds,omitempty"`
}

// Outcome evaluates one finished run under the mitigation lens: the
// post-hoc faults.Analyze recovery model plus the forward-progress
// decomposition the MitigationReport compares mitigated vs. unmitigated
// runs on.
type Outcome struct {
	Name string
	// Resilience is the post-hoc recovery model (checkpoints,
	// interrupts, lost work, restart reads) shared with the
	// ResilienceReport.
	Resilience faults.Resilience
	// RetryStormSeconds sums unmitigated target-outage event seconds —
	// the time writes burned retrying against dead targets. Quarantine
	// absorbs storms, so this is the number mitigation drives down.
	RetryStormSeconds float64
	// FaultCriticalSeconds is the critical-path fault time: the max over
	// ranks of each rank's cumulative fault-event seconds. It bounds how
	// much of the makespan faults consumed.
	FaultCriticalSeconds float64
	// MitigatedWrites counts writes a policy absorbed a fault on.
	MitigatedWrites int
	// Stats is the engine's own action counters (zero without one).
	Stats Stats
	// ForwardProgress is useful work over total cost:
	// max(0, makespan − FaultCriticalSeconds) /
	// (makespan + lost work + restart reads). 1 for a fault-free run.
	// Unlike Resilience.ForwardProgress (which only models recovery),
	// the numerator discounts fault time burned on the critical path, so
	// absorbing retry storms raises it.
	ForwardProgress float64
}

// Evaluate computes the mitigation outcome for a finished run. stats
// may be nil (no engine ran). Deterministic: a pure function of its
// arguments.
func Evaluate(name string, plan *faults.Plan, run *iosim.CharacterizeFold, events []iosim.FaultEvent, stats *Stats) Outcome {
	o := Outcome{Name: name, Resilience: faults.Analyze(plan, run, events)}
	if stats != nil {
		o.Stats = *stats
	}
	perRank := map[int]float64{}
	for _, ev := range events {
		perRank[ev.Rank] += ev.Seconds
		if perRank[ev.Rank] > o.FaultCriticalSeconds {
			o.FaultCriticalSeconds = perRank[ev.Rank]
		}
		if ev.Mitigated {
			o.MitigatedWrites++
			continue
		}
		if ev.Kind == faults.KindTargetOutage {
			o.RetryStormSeconds += ev.Seconds
		}
	}
	useful := o.Resilience.Makespan - o.FaultCriticalSeconds
	if useful < 0 {
		useful = 0
	}
	total := o.Resilience.Makespan + o.Resilience.LostWorkSeconds + o.Resilience.RestartReadSeconds
	if total > 0 {
		o.ForwardProgress = useful / total
	} else {
		o.ForwardProgress = 1
	}
	return o
}

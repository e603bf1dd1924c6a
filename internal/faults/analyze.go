package faults

import (
	"math"
	"sort"

	"amrproxyio/internal/iosim"
)

// Resilience summarizes what a fault plan cost one run: the recovery
// model the ResilienceReport surfaces per campaign config.
type Resilience struct {
	// Makespan is the run's simulated I/O makespan (max record end).
	Makespan float64
	// Checkpoints is the number of completed checkpoint bursts.
	Checkpoints int
	// Interrupts counts rank deaths: explicit rank-interrupt events
	// plus MTBF-driven draws.
	Interrupts int
	// LostWorkSeconds is the simulated work discarded by interrupts:
	// for each, the time since the last completed checkpoint.
	LostWorkSeconds float64
	// RestartReadSeconds is the time spent reading checkpoints back
	// after interrupts. The read is priced symmetrically: restoring a
	// checkpoint re-moves its bytes through the same tiered model that
	// wrote it, so the read costs the burst's write wall time.
	RestartReadSeconds float64
	// FaultWrites, Retries, Failovers, and FaultSeconds aggregate the
	// write-path FaultEvent stream.
	FaultWrites  int
	Retries      int
	Failovers    int
	FaultSeconds float64
	// ForwardProgress is the effective forward-progress rate:
	// makespan / (makespan + lost work + restart reads). 1 under a
	// fault-free run.
	ForwardProgress float64
	// ObservedMTBFSeconds is the censored-MLE mean time between failures
	// over the interrupt schedule the run actually saw (MTBFEstimator);
	// 0 when no interrupt occurred. This is the same estimate the online
	// resilience engine converges to, so post-hoc and closed-loop views
	// agree.
	ObservedMTBFSeconds float64
	// YoungIntervalSeconds is the Young/Daly optimal checkpoint
	// interval sqrt(2 * C * MTBF) for the run's mean checkpoint cost C;
	// 0 when the plan has no MTBF.
	YoungIntervalSeconds float64
}

// YoungInterval is Young's first-order optimal checkpoint interval for
// a checkpoint costing ckptSeconds under exponential failures with the
// given mean time between failures: sqrt(2 * C * MTBF).
func YoungInterval(ckptSeconds, mtbfSeconds float64) float64 {
	if ckptSeconds <= 0 || mtbfSeconds <= 0 {
		return 0
	}
	return math.Sqrt(2 * ckptSeconds * mtbfSeconds)
}

// checkpoint is one completed burst on the recovery timeline.
type checkpoint struct {
	end  float64 // completion time: max record end in the burst's step
	wall float64 // the burst's write wall time (= symmetric read-back)
}

// Analyze replays a plan's interrupt schedule against a finished run's
// fold and fault-event stream. It is post-hoc and deterministic: the
// same (plan, run, events) triple always yields the same Resilience,
// with MTBF interrupts drawn from plan.Seed.
func Analyze(plan *Plan, run *iosim.CharacterizeFold, events []iosim.FaultEvent) Resilience {
	var r Resilience
	for _, e := range events {
		r.FaultWrites++
		r.Retries += e.Retries
		r.FaultSeconds += e.Seconds
		if e.FailoverTarget >= 0 {
			r.Failovers++
		}
	}

	// Recovery timeline: when each checkpoint burst completed, and what
	// it cost to write (= what it costs to read back). Every record
	// belongs to a burst, so the latest burst end is the makespan.
	var ckpts []checkpoint
	for _, b := range run.Bursts() {
		end := run.StepSpan(b.Step).End
		ckpts = append(ckpts, checkpoint{end: end, wall: b.WallSeconds})
		r.Makespan = max(r.Makespan, end)
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].end < ckpts[j].end })
	r.Checkpoints = len(ckpts)

	// Interrupt schedule: explicit events plus MTBF draws, shared with
	// the online resilience engine via Plan.Interrupts (prefix-stable in
	// the horizon, so both views replay the same deaths).
	interrupts := plan.Interrupts(r.Makespan)
	r.Interrupts = len(interrupts)

	var est MTBFEstimator
	for _, t := range interrupts {
		est.Observe(t)
	}
	est.AdvanceTo(r.Makespan)
	r.ObservedMTBFSeconds = est.Estimate()

	// Each interrupt discards the work since the last completed
	// checkpoint (all of it when none completed yet) and re-reads that
	// checkpoint through the tiered model.
	var ckptWallSum float64
	for _, c := range ckpts {
		ckptWallSum += c.wall
	}
	for _, t := range interrupts {
		last := -1
		for i, c := range ckpts {
			if c.end <= t {
				last = i
			} else {
				break
			}
		}
		if last < 0 {
			r.LostWorkSeconds += t
			continue
		}
		r.LostWorkSeconds += t - ckpts[last].end
		r.RestartReadSeconds += ckpts[last].wall
	}

	if r.Makespan > 0 {
		r.ForwardProgress = r.Makespan / (r.Makespan + r.LostWorkSeconds + r.RestartReadSeconds)
	}
	if plan != nil && plan.MTBFSeconds > 0 && len(ckpts) > 0 {
		r.YoungIntervalSeconds = YoungInterval(ckptWallSum/float64(len(ckpts)), plan.MTBFSeconds)
	}
	return r
}

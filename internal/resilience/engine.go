package resilience

import (
	"sort"

	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
)

// Engine is the closed-loop mitigation engine: between bursts it
// observes the deterministic fault-event stream a run has produced so
// far and applies the enabled Policy — retiming checkpoints, opening
// target circuit breakers, and shedding plot bursts.
//
// Determinism contract: every Engine method must be called between
// bursts, by the goroutine that writes the engine's FileSystem (an
// Engine, like a FileSystem, has a single user). Decisions are pure
// functions of (policy, plan, the merged FaultEvents stream, rank
// clocks) — all of which are themselves deterministic under the iosim
// snapshot contract — so mitigated runs replay identically. The engine
// never mutates injector state mid-burst: quarantine maps are installed
// through iosim.Quarantiner only from Observe, which the run loops call
// between bursts.
//
// All methods are safe on a nil receiver (no-ops returning zero
// values), so run loops call them unconditionally and the zero-policy
// path stays byte-identical.
type Engine struct {
	policy Policy
	plan   faults.Plan
	nprocs int
	quar   iosim.Quarantiner

	est faults.MTBFEstimator

	// lastNow / lastFaultMax / pressure implement the sliding fault-
	// pressure window: pressure is Δ(max-rank cumulative fault seconds)
	// over Δ(simulated now) between consecutive observations.
	lastNow      float64
	lastFaultMax float64
	pressure     float64

	// open maps target → breaker-open-until, rebuilt from scratch from
	// the event stream on every observation (a pure function of the
	// stream, so order of observations cannot matter). everOpened
	// accumulates targets that ever tripped, for Stats.
	open       map[int]float64
	everOpened map[int]bool

	// dumpWallSum/dumpWalls average observed burst wall times — the C
	// in Young's sqrt(2·C·MTBF). lastCheckpointEnd anchors the adaptive
	// checkpoint interval: only checkpoint bursts move it (a plot burst
	// does not reset the time-at-risk since the last checkpoint).
	// shedStreak counts consecutive shed plots.
	dumpWallSum       float64
	dumpWalls         int
	lastCheckpointEnd float64
	shedStreak        int

	stats Stats
}

// New builds an engine for a validated policy against a run's fault
// plan. Returns nil for a zero policy so callers can thread the result
// unconditionally. q receives quarantine maps (usually the
// *faults.Injector); nil disables the breaker installs while keeping
// the rest of the engine live.
func New(p *Policy, plan faults.Plan, nprocs int, q iosim.Quarantiner) *Engine {
	if p.Zero() {
		return nil
	}
	return &Engine{
		policy:     *p,
		plan:       plan,
		nprocs:     nprocs,
		quar:       q,
		open:       map[int]float64{},
		everOpened: map[int]bool{},
	}
}

// ForFileSystem builds an engine against a filesystem's installed fault
// injector. Returns nil when the policy is zero or the filesystem has
// no *faults.Injector — with nothing injecting faults there is nothing
// to mitigate, and the run must stay byte-identical.
func ForFileSystem(p *Policy, fs *iosim.FileSystem, nprocs int) *Engine {
	if p.Zero() || fs == nil {
		return nil
	}
	inj, ok := fs.Config().Faults.(*faults.Injector)
	if !ok || inj == nil {
		return nil
	}
	return New(p, inj.Plan(), nprocs, inj)
}

// Clock returns the run's frontier: the max simulated clock across the
// engine's ranks. 0 on a nil engine.
func (e *Engine) Clock(fs *iosim.FileSystem) float64 {
	if e == nil {
		return 0
	}
	var now float64
	for r := 0; r < e.nprocs; r++ {
		if c := fs.Clock(r); c > now {
			now = c
		}
	}
	return now
}

// Observe ingests the run's state between bursts: refreshes the online
// MTBF estimate, the fault-pressure window, and the circuit breakers
// (installing the active quarantine set into the injector). No-op on a
// nil engine. The run loops call it implicitly through ShedPlot /
// CheckpointDue / BurstWritten; macsio's rank 0 calls it directly.
func (e *Engine) Observe(fs *iosim.FileSystem) {
	if e == nil {
		return
	}
	now := e.Clock(fs)

	// Online MTBF: replay the prefix-stable interrupt schedule up to
	// now. Recomputed from scratch so the estimate is a pure function of
	// (plan, now) — no drift across observation cadences.
	e.est = faults.MTBFEstimator{}
	for _, t := range e.plan.Interrupts(now) {
		if t <= now {
			e.est.Observe(t)
		}
	}
	e.est.AdvanceTo(now)

	events := fs.FaultEvents()

	// Fault-pressure window: critical-path (max over ranks) cumulative
	// fault seconds, differenced against the last observation.
	perRank := map[int]float64{}
	var faultMax float64
	for _, ev := range events {
		perRank[ev.Rank] += ev.Seconds
		if perRank[ev.Rank] > faultMax {
			faultMax = perRank[ev.Rank]
		}
	}
	if now > e.lastNow {
		e.pressure = (faultMax - e.lastFaultMax) / (now - e.lastNow)
		e.lastFaultMax = faultMax
		e.lastNow = now
	}

	// Circuit breakers: rebuild per-target trip state from a
	// chronologically sorted copy of the stream (the rank-major merge
	// order is deterministic but not chronological). Every
	// quarantineThreshold-th observed unmitigated retry storm on a
	// target opens its breaker for the cooldown window, anchored at the
	// tripping event's own start time — a pure function of the stream,
	// never of when the engine happened to look.
	if e.policy.Quarantine && e.quar != nil {
		sorted := make([]iosim.FaultEvent, len(events))
		copy(sorted, events)
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].Start != sorted[j].Start {
				return sorted[i].Start < sorted[j].Start
			}
			return sorted[i].Rank < sorted[j].Rank
		})
		k := e.policy.quarantineThreshold()
		cooldown := e.policy.quarantineCooldown()
		counts := map[int]int{}
		open := map[int]float64{}
		for _, ev := range sorted {
			if ev.Kind != faults.KindTargetOutage || ev.Target < 0 || ev.Mitigated {
				continue // mitigated writes neither count nor reset
			}
			counts[ev.Target]++
			if counts[ev.Target] >= k {
				open[ev.Target] = ev.Start + cooldown
				counts[ev.Target] = 0
			}
		}
		e.open = open
		active := map[int]float64{}
		for tgt, until := range open {
			e.everOpened[tgt] = true
			if until > now {
				active[tgt] = until
			}
		}
		e.quar.Quarantine(active)
	}
}

// ShedPlot decides whether to shed the upcoming plot burst under
// degraded-mode output, recording the shed's nominal bytes when it
// does. Checkpoints must never be routed through ShedPlot. false on a
// nil engine.
func (e *Engine) ShedPlot(fs *iosim.FileSystem, nominalBytes int64) bool {
	if e == nil {
		return false
	}
	e.Observe(fs)
	if !e.policy.DegradedOutput {
		return false
	}
	if e.pressure < e.policy.shedPressure() || e.shedStreak >= e.policy.maxShedStreak() {
		return false
	}
	e.shedStreak++
	e.stats.ShedBursts++
	e.stats.ShedBytes += nominalBytes
	return true
}

// CheckpointDue reports whether the adaptive cadence calls for a
// checkpoint now: the time at risk since the last checkpoint (run start
// if none) has reached the Young/Daly interval sqrt(2·C·MTBF) for the
// observed mean burst wall C and the online MTBF estimate (floored by
// MinCheckpointSeconds).
// Always false before the first observed interrupt or the first written
// burst — the engine does not retime on zero evidence. false on a nil
// engine.
func (e *Engine) CheckpointDue(fs *iosim.FileSystem) bool {
	if e == nil {
		return false
	}
	e.Observe(fs)
	if !e.policy.AdaptiveCheckpoint {
		return false
	}
	mtbf := e.est.Estimate()
	if mtbf <= 0 || e.dumpWalls == 0 {
		return false
	}
	interval := faults.YoungInterval(e.dumpWallSum/float64(e.dumpWalls), mtbf)
	if interval < e.policy.MinCheckpointSeconds {
		interval = e.policy.MinCheckpointSeconds
	}
	if interval <= 0 {
		return false
	}
	return e.lastNow-e.lastCheckpointEnd >= interval
}

// BurstWritten records a completed output burst that began at startedAt
// on the run frontier (Clock before the burst): it feeds the mean
// burst-wall estimate, re-anchors the adaptive checkpoint interval when
// the burst was a checkpoint, and — for plots — resets the shed streak.
// No-op on a nil engine.
func (e *Engine) BurstWritten(fs *iosim.FileSystem, startedAt float64, checkpoint bool) {
	if e == nil {
		return
	}
	now := e.Clock(fs)
	if wall := now - startedAt; wall > 0 {
		e.dumpWallSum += wall
		e.dumpWalls++
	}
	if checkpoint {
		e.lastCheckpointEnd = now
		if e.policy.AdaptiveCheckpoint {
			e.stats.AdaptiveCheckpoints++
		}
	} else {
		e.shedStreak = 0
	}
	e.Observe(fs)
}

// Adaptive reports whether the engine owns the checkpoint cadence
// (fixed-interval checkpointing should stand down). false on a nil
// engine.
func (e *Engine) Adaptive() bool {
	return e != nil && e.policy.AdaptiveCheckpoint
}

// AvoidTargets returns the quarantined-target set as of the last
// observation, for remap routing (amr.RemapToTargetsAvoiding). Empty on
// a nil engine.
func (e *Engine) AvoidTargets() map[int]bool {
	if e == nil {
		return nil
	}
	avoid := map[int]bool{}
	for tgt, until := range e.open {
		if until > e.lastNow {
			avoid[tgt] = true
		}
	}
	if len(avoid) == 0 {
		return nil
	}
	return avoid
}

// NodeFactor returns the node's effective NIC bandwidth multiplier as
// of the last observation: the product of active nic-degrade factors
// covering the node (1 when healthy). The remap uses it to inflate
// degraded nodes' loads so work routes away from them. 1 on a nil
// engine.
func (e *Engine) NodeFactor(node int) float64 {
	if e == nil {
		return 1
	}
	f := 1.0
	for _, ev := range e.plan.Events {
		if ev.Kind != faults.KindNICDegrade || !ev.Active(e.lastNow) {
			continue
		}
		if ev.Node >= 0 && ev.Node != node {
			continue
		}
		if ev.Factor > 0 && ev.Factor < 1 {
			f *= ev.Factor
		}
	}
	return f
}

// ScaleLoads inflates per-box remap loads whose owning rank sits on a
// NIC-degraded node by 1/NodeFactor, so the LPT packing sees degraded
// nodes as proportionally slower and routes bytes away from them.
// loads is modified in place; owner[i] is box i's writing rank. No-op
// on a nil engine or a placement-free topology.
func (e *Engine) ScaleLoads(topo iosim.Topology, nprocs int, owner []int, loads []int64) {
	if e == nil || !topo.Enabled() {
		return
	}
	factors := map[int]float64{}
	for i, o := range owner {
		if o < 0 || i >= len(loads) {
			continue
		}
		node := topo.NodeOf(o, nprocs)
		f, ok := factors[node]
		if !ok {
			f = e.NodeFactor(node)
			factors[node] = f
		}
		if f > 0 && f < 1 {
			loads[i] = int64(float64(loads[i]) / f)
		}
	}
}

// Stats returns a snapshot of the engine's mitigation counters; nil on
// a nil engine (no mitigation ran).
func (e *Engine) Stats() *Stats {
	if e == nil {
		return nil
	}
	s := e.stats
	s.QuarantinedTargets = len(e.everOpened)
	s.ObservedMTBFSeconds = e.est.Estimate()
	return &s
}

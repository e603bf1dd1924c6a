package resilience

import (
	"slices"
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

	// sched is the plan's interrupt schedule, drawn lazily; est is its
	// estimator as of the last observation.
	sched *faults.Schedule
	est   faults.MTBFEstimator

	// cursor marks how far each rank's fault events have been read, and
	// events is the reused read buffer, so an observation reads only the
	// events recorded since the last one. rankFault[r] is rank r's
	// cumulative fault seconds and faultMax the largest value any rank's
	// running sum has reached: the critical path's fault time.
	cursor    []int
	events    []iosim.FaultEvent
	rankFault []float64
	faultMax  float64

	// lastNow / lastFaultMax / pressure implement the sliding fault-
	// pressure window: pressure is Δ(max-rank cumulative fault seconds)
	// over Δ(simulated now) between consecutive observations.
	lastNow      float64
	lastFaultMax float64
	pressure     float64

	// Circuit breakers. starts[T] holds, ascending, the Start of every
	// eligible event on target T: an unmitigated target-outage with
	// T >= 0. A target's trip counter resets after each trip, so in time
	// order T trips at its k-th, 2k-th, … eligible event, and open[T] is
	// the ⌊n/k⌋·k-th smallest of its n starts plus the cooldown: an
	// order statistic of the stream, the same whatever order or cadence
	// the events were read in. open's keys only grow, so they are also
	// every target that ever tripped. installed is the active set last
	// handed to quar.
	starts    [][]float64
	open      map[int]float64
	installed map[int]float64

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
// the rest of the engine live. The engine assumes it is q's only
// installer, so it starts from no open breakers.
func New(p *Policy, plan faults.Plan, nprocs int, q iosim.Quarantiner) *Engine {
	if p.Zero() {
		return nil
	}
	return &Engine{
		policy: *p,
		plan:   plan,
		nprocs: nprocs,
		quar:   q,
		sched:  plan.Schedule(),
		open:   map[int]float64{},
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
// (installing the active quarantine set into the injector when it
// changed). No-op on a nil engine. The run loops call it implicitly
// through ShedPlot / CheckpointDue / BurstWritten; macsio's rank 0
// calls it directly.
//
// An engine observes one filesystem for its whole life: it reads each
// fault event once, through a cursor per rank, so an observation costs
// the events recorded since the last one, not the stream.
func (e *Engine) Observe(fs *iosim.FileSystem) {
	if e == nil {
		return
	}
	now := e.Clock(fs)

	// Online MTBF: the interrupts of the plan's schedule at or before
	// now, a pure function of (plan, now) whatever the cadence.
	e.est = e.sched.Estimator(now)

	// Fault-pressure window: critical-path (max over ranks) cumulative
	// fault seconds, differenced against the last observation. Each
	// rank's sum grows in its own program order, as a full pass over
	// the rank-major stream would add it.
	breakers := e.policy.Quarantine && e.quar != nil
	e.events, e.cursor = fs.AppendFaultEvents(e.events[:0], e.cursor)
	for _, ev := range e.events {
		for ev.Rank >= len(e.rankFault) {
			e.rankFault = append(e.rankFault, 0)
		}
		e.rankFault[ev.Rank] += ev.Seconds
		if e.rankFault[ev.Rank] > e.faultMax {
			e.faultMax = e.rankFault[ev.Rank]
		}
		if breakers && ev.Kind == faults.KindTargetOutage && ev.Target >= 0 && !ev.Mitigated {
			e.trip(ev.Target, ev.Start) // mitigated writes neither count nor reset
		}
	}
	if now > e.lastNow {
		e.pressure = (e.faultMax - e.lastFaultMax) / (now - e.lastNow)
		e.lastFaultMax = e.faultMax
		e.lastNow = now
	}
	if breakers {
		e.install(now)
	}
}

// trip counts one eligible retry storm on target at start. Nothing
// synchronizes rank clocks between bursts, so a new event may start
// before one already counted: the start is inserted by binary search,
// and the target's breaker re-read from its tripping order statistic —
// anchored at that event's own start, never at when the engine looked.
func (e *Engine) trip(target int, start float64) {
	for target >= len(e.starts) {
		e.starts = append(e.starts, nil)
	}
	s := slices.Insert(e.starts[target], sort.SearchFloat64s(e.starts[target], start), start)
	e.starts[target] = s
	if k := e.policy.quarantineThreshold(); len(s) >= k {
		e.open[target] = s[len(s)/k*k-1] + e.policy.quarantineCooldown()
	}
}

// install hands the quarantiner the breakers open at now, when that set
// differs from the one installed last.
func (e *Engine) install(now float64) {
	active, same := 0, true
	for tgt, until := range e.open {
		if until > now {
			active++
			if inst, ok := e.installed[tgt]; !ok || inst != until {
				same = false
			}
		}
	}
	if same && active == len(e.installed) {
		return
	}
	e.installed = make(map[int]float64, active)
	for tgt, until := range e.open {
		if until > now {
			e.installed[tgt] = until
		}
	}
	e.quar.Quarantine(e.installed)
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
	s.QuarantinedTargets = len(e.open)
	s.ObservedMTBFSeconds = e.est.Estimate()
	return &s
}

package faults

import (
	"maps"

	"amrproxyio/internal/iosim"
)

// Injector implements iosim.FaultInjector for a validated Plan. Build
// one per FileSystem with Plan.Injector and install it via
// iosim.Config.Faults; a nil *Plan yields no injector (leave the field
// nil) so the fault-free write path stays byte-identical.
type Injector struct {
	plan    Plan
	targets int // topology's storage-target count; 0 = no failover pool

	// quar holds the quarantine map the resilience engine installed
	// between bursts (iosim.Quarantiner): target → breaker-open-until
	// second. Only ever replaced between bursts, so every write in a
	// burst sees the same map (determinism contract).
	quar map[int]float64

	// dropped tracks which (bb-loss event, rank) pairs have already paid
	// the backlog-replay cost — the partition is only lost once per
	// window. Only rank's own writes query rank's keys, so the map is
	// deterministic in any order of the ranks' writes.
	dropped map[dropKey]bool
}

type dropKey struct {
	event int
	rank  int
}

// Injector builds the write-path injector against a topology (its
// target count bounds the failover pool; the zero topology disables
// failover, writes just pay the retry storm). Returns nil for a zero
// plan so callers can install the result unconditionally — but note a
// nil *Injector must not be stored into iosim.Config.Faults as a typed
// nil; campaign.Case.FSConfig guards this.
func (p *Plan) Injector(topo iosim.Topology) *Injector {
	if p.Zero() {
		return nil
	}
	return &Injector{
		plan:    *p,
		targets: topo.Targets,
		dropped: map[dropKey]bool{},
	}
}

// Plan returns a copy of the injector's validated fault plan. The
// resilience engine reads it back through iosim.Config.Faults so the
// online view replays exactly the schedule the write path prices.
func (in *Injector) Plan() Plan { return in.plan }

// Quarantine implements iosim.Quarantiner: install the circuit-breaker
// map (target → open-until second). Must only be called between bursts;
// the map is copied so the caller may keep mutating its own.
func (in *Injector) Quarantine(until map[int]float64) {
	in.quar = maps.Clone(until)
}

// quarantined reports whether a breaker is open for target at time t.
func (in *Injector) quarantined(target int, t float64) bool {
	until, ok := in.quar[target]
	return ok && target >= 0 && t < until
}

// matchNode reports whether the event covers a write from node
// (negative event nodes are wildcards; they are also the only match
// under the aggregate model's node == -1 labels).
func matchNode(e Event, node int) bool {
	return e.Node < 0 || e.Node == node
}

// matchTarget mirrors matchNode for storage targets.
func matchTarget(e Event, target int) bool {
	return e.Target < 0 || e.Target == target
}

// firstDrop claims the one-time backlog replay for a (bb-loss event,
// rank) pair.
func (in *Injector) firstDrop(event, rank int) bool {
	key := dropKey{event, rank}
	if in.dropped[key] {
		return false
	}
	in.dropped[key] = true
	return true
}

// targetOut reports whether any outage window covers target at time t.
func (in *Injector) targetOut(target int, t float64) bool {
	for _, e := range in.plan.Events {
		if e.Kind == KindTargetOutage && e.active(t) && matchTarget(e, target) {
			return true
		}
	}
	return false
}

// failover picks the next healthy target after target at time t,
// scanning round-robin; -1 when there is no placement (aggregate model)
// or no healthy target.
func (in *Injector) failover(target int, t float64) int {
	if target < 0 || in.targets <= 0 {
		return -1
	}
	for k := 1; k <= in.targets; k++ {
		cand := (target + k) % in.targets
		if !in.targetOut(cand, t) {
			return cand
		}
	}
	return -1
}

// Price implements iosim.FaultInjector. It runs with rank's simulated
// clock; everything it consults is a pure function of (rank, start, the
// plan, the BeginBurst snapshot), which is the determinism contract.
//
// Event priority per write: an active bb-loss on the write's node (and
// a buffer-capable model) reprices the transfer through the backing
// tier; otherwise an active outage on the write's target charges the
// retry storm and fails over; an active nic-degrade then stretches
// whichever transfer resulted. One FaultEvent is recorded per faulted
// write, labeled by the dominant (first-applied) kind.
func (in *Injector) Price(model iosim.StorageModel, rank int, start float64, nbytes int64, node, target int) (iosim.WriteCost, iosim.FaultEvent, bool) {
	ev := iosim.FaultEvent{
		Rank: rank, Node: node, Target: target,
		Start: start, FailoverTarget: -1,
	}
	var cost iosim.WriteCost
	priced := false

	// Buffer partition loss: drop the backlog once, then write through
	// the backing tier for the rest of the window.
	for i, e := range in.plan.Events {
		if e.Kind != KindBBLoss || !e.active(start) || !matchNode(e, node) {
			continue
		}
		bf, ok := model.(iosim.BufferFaults)
		if !ok {
			continue // single-tier stack: no buffer to lose
		}
		var replay float64
		if in.firstDrop(i, rank) {
			replay = bf.DropBuffer(rank, start)
		}
		bw := bf.FallbackBandwidth(rank)
		if bw <= 0 {
			bw = 1 // degenerate-config guard, mirroring snapshotBandwidth
		}
		cost = iosim.WriteCost{
			Seconds: replay + float64(nbytes)/bw,
			Tier:    iosim.TierGPFS,
			Fault:   KindBBLoss, FaultSeconds: replay,
		}
		ev.Kind = KindBBLoss
		ev.Seconds = replay
		priced = true
		break
	}

	// Target outage: pay the retry storm, then transfer through the
	// contention snapshot and fail over to a healthy target. The
	// failover relabels the ledger's placement; bandwidth stays the
	// rank's snapshot share (the snapshot is fixed at BeginBurst —
	// recomputing fan-in per write would break determinism).
	if !priced {
		for _, e := range in.plan.Events {
			if e.Kind != KindTargetOutage || !e.active(start) || !matchTarget(e, target) {
				continue
			}
			// Circuit breaker: the resilience engine has quarantined this
			// target, so fail over immediately at fault-free price instead
			// of re-paying the storm (only when a healthy target exists to
			// take the write; the aggregate model has no placement to
			// reroute).
			if in.quarantined(target, start) {
				if ft := in.failover(target, start); ft >= 0 {
					cost = model.Price(rank, start, nbytes)
					cost.Fault = KindTargetOutage
					cost.Mitigated = MitigationQuarantine
					ev.Kind = KindTargetOutage
					ev.FailoverTarget = ft
					ev.Mitigated = true
					priced = true
					break
				}
			}
			retries := in.plan.maxRetries()
			retrySec := in.plan.retrySeconds()
			cost = model.Price(rank, start+retrySec, nbytes)
			cost.Seconds += retrySec
			cost.Fault = KindTargetOutage
			cost.Retries = retries
			cost.FaultSeconds += retrySec
			ev.Kind = KindTargetOutage
			ev.Seconds = retrySec
			ev.Retries = retries
			ev.FailoverTarget = in.failover(target, start+retrySec)
			priced = true
			break
		}
	}

	if !priced {
		cost = model.Price(rank, start, nbytes)
	}

	// NIC degradation stretches whatever transfer resulted.
	for _, e := range in.plan.Events {
		if e.Kind != KindNICDegrade || !e.active(start) || !matchNode(e, node) {
			continue
		}
		if e.Factor >= 1 {
			break // validated to (0, 1]; 1 is a no-op
		}
		extra := cost.Seconds * (1/e.Factor - 1)
		cost.Seconds += extra
		cost.FaultSeconds += extra
		if cost.Fault == "" {
			cost.Fault = KindNICDegrade
		}
		if ev.Kind == "" {
			ev.Kind = KindNICDegrade
		}
		ev.Seconds += extra
		break
	}

	if ev.Kind == "" {
		return cost, iosim.FaultEvent{}, false
	}
	return cost, ev, true
}

package iosim

import "fmt"

// The fault-injection seam. The paper prices checkpoint bursts because
// checkpoints exist to survive failures, so the filesystem model carries
// a hook for deterministic failure injection: a FaultInjector (implemented
// by internal/faults, installed through Config.Faults) is consulted on the
// write path instead of the raw StorageModel and may charge retry and
// backlog-replay time, degrade link bandwidth, and fail writes over to
// healthy storage targets. A nil injector keeps the write path — and every
// ledger byte — identical to the fault-free model (property-test-pinned by
// internal/faults).
//
// Determinism contract: the injector is called with rank's own simulated
// clock, and must resolve its schedule purely against (rank, start, the
// BeginBurst snapshot) — never wall clock and never another rank's
// progress — so ledgers and fault-event streams are reproducible in any
// order of the ranks' calls within a burst.

// FaultEvent records one injected-fault action taken on the write path.
// Events live beside the write ledger (FileSystem.FaultEvents) with the
// same deterministic merge order: ascending rank, then program order.
type FaultEvent struct {
	// Kind is the fault kind that fired (internal/faults names:
	// "target-outage", "nic-degrade", "bb-loss").
	Kind string
	Rank int
	// Node and Target are the affected write's link labels (-1 when the
	// aggregate model carries no placement).
	Node   int
	Target int
	// Start is rank's simulated clock when the affected write began.
	Start float64
	// Seconds is the extra time the fault added to the write (retry
	// backoff/timeouts, backlog replay, slowdown).
	Seconds float64
	// Retries counts failed attempts before the write went through.
	Retries int
	// FailoverTarget is the storage target the write was redirected to
	// after exhausting retries (-1 when the write kept its target).
	FailoverTarget int
	// Mitigated marks an event a resilience policy absorbed: the fault
	// matched the write, but an installed circuit breaker (Quarantiner)
	// made it fail over immediately instead of paying the retry storm,
	// so Seconds is 0 and Retries is 0. Always false without a policy
	// engine, keeping PR-6 event streams byte-identical.
	Mitigated bool
}

// FaultInjector prices writes on behalf of the installed StorageModel
// when fault injection is enabled. Implementations live in internal/faults
// and are installed via Config.Faults; nil disables injection with zero
// overhead. The calling contract matches StorageModel.Price's: within a
// burst the result may not depend on the order different ranks' calls
// arrive in. An injector keeps no burst state — its schedule is resolved
// per write against rank clocks — so it has no burst hooks.
type FaultInjector interface {
	// Price prices one data transfer by rank starting at start on its
	// simulated clock, moving over the (node, target) link the topology
	// resolved (-1 labels under the aggregate model). model is the
	// installed storage stack: the fault-free path must delegate to
	// model.Price unchanged. When a fault touched the write, the returned
	// event describes it and faulted is true; a FailoverTarget >= 0
	// relabels the ledger record's Target.
	Price(model StorageModel, rank int, start float64, nbytes int64, node, target int) (cost WriteCost, ev FaultEvent, faulted bool)
}

// Quarantiner is the optional FaultInjector extension a between-burst
// resilience policy engine (internal/resilience) uses to install target
// circuit breakers: writes routed to a quarantined target skip the retry
// storm and fail over immediately, labeled WriteRecord.Mitigated and
// FaultEvent.Mitigated. until maps target index → the simulated second
// the breaker closes again; an empty or nil map clears every breaker.
//
// Determinism contract: Quarantine must only be called between bursts
// (like Retarget) — installing a breaker mid-burst would make
// which writes it covers depend on the order of the ranks' calls.
type Quarantiner interface {
	Quarantine(until map[int]float64)
}

// BufferFaults is the optional StorageModel extension the fault injector
// uses to model burst-buffer partition loss. The "bb"/"bb+gpfs" stacks
// implement it; single-tier stacks do not, so buffer-loss events are
// no-ops against them. Both methods follow the Price contract: they
// touch only rank-private state.
type BufferFaults interface {
	// DropBuffer discards rank's buffered bytes as of start on rank's
	// clock (the partition's contents are lost), returning the seconds
	// needed to replay the lost backlog through the backing tier.
	DropBuffer(rank int, start float64) float64
	// FallbackBandwidth is the backing-tier stream bandwidth rank writes
	// at while its partition is out.
	FallbackBandwidth(rank int) float64
}

// price runs one transfer through the fault seam when an injector is
// installed, recording the fault event on rank's shard; the nil-injector
// path is exactly the historical model call.
func (fs *FileSystem) price(s *shard, rank int, start float64, nbytes int64, node int, target *int) WriteCost {
	inj := fs.cfg.Faults
	if inj == nil {
		return fs.model.Price(rank, start, nbytes)
	}
	cost, ev, faulted := inj.Price(fs.model, rank, start, nbytes, node, *target)
	if faulted {
		if ev.FailoverTarget >= 0 {
			*target = ev.FailoverTarget
		}
		s.faults = append(s.faults, ev)
	}
	return cost
}

// FaultEvents returns a merged copy of all injected-fault events, in the
// same deterministic order as Ledger: ascending rank, then each rank's
// program order. Empty (never nil-vs-non-nil observable) without an
// installed injector.
func (fs *FileSystem) FaultEvents() []FaultEvent {
	var total int
	for i := range fs.shards {
		total += len(fs.shards[i].faults)
	}
	out := make([]FaultEvent, 0, total)
	for i := range fs.shards {
		out = append(out, fs.shards[i].faults...)
	}
	return out
}

// AppendFaultEvents appends to dst the fault events each rank recorded
// past cursor[rank], in FaultEvents' order (ascending rank, then program
// order), and returns dst with the cursor advanced to the end of every
// rank's events. A nil cursor reads from the start; the returned cursor
// has one entry per rank shard. A reader that keeps the cursor between
// bursts reads each event once. It panics when a rank holds fewer events
// than its cursor, or the cursor covers more ranks than the filesystem
// has: the cursor was not read from this filesystem.
func (fs *FileSystem) AppendFaultEvents(dst []FaultEvent, cursor []int) ([]FaultEvent, []int) {
	if len(cursor) > len(fs.shards) {
		panic(fmt.Sprintf("iosim: fault cursor covers %d ranks, filesystem has %d", len(cursor), len(fs.shards)))
	}
	for len(cursor) < len(fs.shards) {
		cursor = append(cursor, 0)
	}
	for r := range fs.shards {
		evs := fs.shards[r].faults
		if len(evs) < cursor[r] {
			panic(fmt.Sprintf("iosim: rank %d holds %d fault events, cursor is at %d", r, len(evs), cursor[r]))
		}
		dst = append(dst, evs[cursor[r]:]...)
		cursor[r] = len(evs)
	}
	return dst, cursor
}

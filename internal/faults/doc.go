// Package faults models failures in the simulated I/O stack: a
// deterministic, seed-driven fault-injection and recovery-cost subsystem
// threaded through the iosim StorageModel/Topology seams.
//
// The paper prices checkpoint bursts, and checkpoints exist to survive
// failures — so the model has to be able to answer "what does a checkpoint
// cadence cost me under failures, and when does it pay off?". A Plan
// (JSON round-tripped on campaign.Case.Faults, -faults on the CLIs)
// schedules events against simulated time:
//
//   - "target-outage": a storage target is down for a window. Writes
//     routed through it pay a retry/backoff/timeout cost, then fail over
//     to the next healthy target (relabeling the ledger's placement)
//     and transfer through the contention snapshot.
//   - "nic-degrade": a node's injection bandwidth is multiplied by
//     Factor in (0,1] for a window; every write from the node slows by
//     1/Factor.
//   - "bb-loss": a node's burst-buffer partition fails. Affected ranks
//     drop their buffered backlog (replayed through the backing tier at
//     the drain rate) and write through to the GPFS tier until the
//     window closes. Single-tier stacks ignore the event.
//   - "rank-interrupt": a rank dies at Start. Consumed by Analyze, not
//     the write path: the run replays from the last completed
//     checkpoint, losing the work since it and re-reading the
//     checkpoint through the same tiered model that wrote it.
//
// MTBFSeconds > 0 additionally draws exponential rank interrupts from
// Seed, which is what makes a Young/Daly optimal-interval analysis fall
// out of a cadence sweep (YoungInterval). Plan.Interrupts materializes
// the full interrupt schedule up to a horizon, prefix-stable: growing
// the horizon only appends draws, never reshuffles earlier ones, so an
// online consumer (the resilience engine) and the post-hoc Analyze see
// the same prefix; Plan.Schedule is its lazily drawn form for a reader
// that asks again at later horizons. MTBFEstimator is the shared online
// counterpart: a censored-exponential MLE (horizon / interrupts-so-far)
// that both Analyze's report and resilience's adaptive checkpoint
// cadence feed into YoungInterval.
//
// Determinism contract: Plan.Injector implements iosim.FaultInjector,
// which the FileSystem's single writer consults with each rank's own
// simulated clock. The injector resolves its schedule purely against
// (rank, start, the BeginBurst snapshot) — never wall clock, never
// another rank's progress — so ledgers and FaultEvent streams are
// byte-identical across runs and across the order of the ranks' writes
// within a burst. The
// zero plan (nil, or no events and no MTBF) is property-test-pinned
// byte-identical to the fault-free stack.
package faults

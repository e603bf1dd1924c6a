// Package resilience closes the fault loop: it turns the deterministic
// fault-event stream internal/faults injects into between-burst
// mitigation decisions, so runs react to failures instead of just
// paying for them.
//
// Three composable policies live behind a JSON Policy (threaded as
// campaign.Case.Mitigate, driver.Options.Mitigate, and the
// -mitigate CLI flags):
//
//   - Adaptive checkpoint cadence: an online censored-MLE MTBF estimate
//     (faults.MTBFEstimator over the prefix-stable interrupt schedule,
//     faults.Schedule) retimes the next checkpoint to Young's
//     sqrt(2·C·MTBF) interval, where C is the observed mean burst wall.
//   - Target quarantine: after K observed retry storms on a storage
//     target, a circuit breaker opens for a cooldown window. The
//     breaker map is installed into the fault injector between bursts
//     (iosim.Quarantiner), so quarantined writes fail over immediately
//     — labeled WriteRecord.Mitigated / FaultEvent.Mitigated — instead
//     of re-paying MaxRetries·RetryTimeout plus backoff per write; the
//     quarantine set also feeds amr.RemapToTargetsAvoiding so the next
//     layout remap routes around degraded targets and NIC-degraded
//     nodes.
//   - Degraded-mode output: while critical-path fault pressure exceeds
//     a threshold, plotfile bursts are shed (never checkpoints) and the
//     shed bytes recorded; a max-streak cap forces output through
//     periodically so plots never starve.
//
// # Determinism
//
// Every engine decision is a pure function of (policy, plan, the merged
// FaultEvents stream, rank clocks) — state that is itself deterministic
// under iosim's snapshot-at-BeginBurst contract. The engine only acts
// between bursts, and keeps running state rather than re-reading the
// stream: per-rank cursors (iosim.FileSystem.AppendFaultEvents) hand it
// each fault event once, and it keeps per-rank fault sums, the
// interrupt schedule drawn so far (faults.Schedule), and per target the
// sorted start times of the storms that count. A target's breaker is an
// order statistic of those starts (the ⌊n/k⌋·k-th smallest, plus the
// cooldown), so it does not depend on the order or cadence in which
// events were observed; the active set is installed before the next
// burst's first write whenever it changed. A test-only oracle rebuilds
// the same state from scratch and must match it exactly after every
// observation. Mitigated runs therefore replay byte-identically, and a
// zero Policy builds no engine at all, keeping the policy-free path
// property-test-pinned byte-identical to pre-mitigation behavior.
//
// Evaluate condenses a finished run into an Outcome — retry-storm
// seconds, critical-path fault time, and a forward-progress rate whose
// numerator discounts fault time burned on the critical path — which
// report.MitigationReport compares mitigated vs. unmitigated.
package resilience

// Package iosim models the parallel filesystem the paper's runs wrote to
// (Summit's GPFS-based Alpine). It provides a deterministic performance
// model — shared aggregate bandwidth with per-writer caps, per-open
// latency, seeded lognormal jitter, and an optional per-link topology —
// plus a ledger of every write so the analysis layer can reconstruct
// per-(step, level, rank) output sizes, which are the quantities the
// paper measures.
//
// # Backends
//
// Two backends are supported, with identical timing models; the backend
// only controls materialization:
//
//   - ModelOnly: no bytes touch the real disk; only the ledger and the
//     simulated clock advance. This is how Summit-scale cases run.
//   - RealDisk: data is also written to the host filesystem so plotfile
//     round-trip tests and external tooling can read it.
//
// Writers hand Write a size and an encoder, and the one rule lives there:
// pricing reads only the size, so a ModelOnly filesystem, or a nil
// encoder (WriteSize), prices the size and never encodes, while RealDisk
// encodes once and fails the write, naming the path, when the encoding's
// length is not the size. No writer asks which backend it has, and every
// length function a writer prices with is checked on every RealDisk
// write.
//
// # Single writer
//
// A FileSystem has a single writer, like bytes.Buffer: one goroutine
// calls its methods, and separate filesystems are independent, so it
// takes no locks. Each rank owns a ledger segment and clock in the
// FileSystem; burst contention is a bandwidth snapshot taken once at
// BeginBurst and read by every write. The plotfile, checkpoint and
// MACSio writers price a whole burst rank by rank on the caller's
// goroutine, and campaign.RunAll gives each case its own FileSystem. The
// race detector in CI is what shows that no caller shares one across
// goroutines.
//
// # Determinism guarantee
//
// Ledger, TotalBytes and Clock merge or read the per-rank segments on
// demand. The merged ledger order is a contract callers may rely on:
// ascending rank, then each rank's own program order — independent of
// the order in which different ranks' writes arrive. Within a burst, and
// across a sequence of bursts with compute gaps between them, that
// arrival order changes no record, consumer-feed entry or fault event
// either (TestBurstLedgerIndependentOfRankOrder,
// TestBurstSequenceIndependentOfRankOrder): this is what lets a writer
// price a burst rank-major. Every quantity derived from the write stream
// (CharacterizeFold's bursts and profile, the campaign figures) is therefore
// bit-reproducible across runs, and a parallel campaign's ledgers are
// byte-identical to a serial one's. Records carry Start timestamps for
// callers that want time ordering instead. Jitter is a pure function of
// (Seed, rank, path) — an inline FNV-1a hash, no shared RNG state — so
// it does not depend on the order of writes either.
//
// # Per-link contention model
//
// By default every burst shares one aggregate bandwidth pool
// (Config.AggregateBandwidth split across BeginBurst writers, capped per
// writer). Setting Config.Topology refines this into a
// distribution-mapping-aware per-link model: ranks are packed onto
// compute nodes (block placement), each node's NIC bandwidth is split
// across the writers placed on it, and each storage target's (GPFS NSD
// server's) bandwidth is split across the writers fanned into it.
// BeginBurst snapshots one effective bandwidth per (rank, target) link
// (ranks past the declared burst keep the scalar pool share),
// so two writers packed on one node contend even when the backend is
// idle, while spread placements don't. Ledger records gain (Node, Target)
// labels, and CharacterizeFold's bursts and profile gain per-node and
// per-link skew aggregations. The zero Topology keeps the historical aggregate model
// byte-identical — durations, records, statistics and renderings are
// pinned by a property test. Only I/O is priced: like the paper's model,
// the package has no communication term.
//
// # Storage-tier models
//
// All pricing goes through the StorageModel interface (storage.go):
// BeginBurst, EndBurst, Price and Bandwidth. Every stack bottoms out in
// one GPFS tier — the aggregate pool, refined by the per-link model
// above and by the two-phase aggregator set below, all read from one
// contention snapshot taken at BeginBurst. Config.Storage selects what
// sits on top of it: "" / "gpfs" nothing, "bb" the node-local
// burst-buffer tier (per-node NVMe capacity and bandwidth split across
// the ranks packed on a node, asynchronous drain, stall at the drain
// rate when a partition fills mid-burst), and "bb+gpfs" the same buffer
// with each rank's drain capped by its GPFS-tier bandwidth. Multi-tier
// records carry Tier / StallSeconds / DrainSeconds / BBFill fields,
// aggregated by CharacterizeFold into per-tier bytes, buffer occupancy,
// drain tails, and stall stragglers.
//
// The StorageModel contract extends the determinism guarantee above:
//
//   - A model may snapshot cross-rank contention state only at
//     BeginBurst (which must be idempotent for repeated calls with the
//     same writer count).
//   - Per-write state must be a function of (rank, rank's clock, write
//     size) so ledgers are independent of the order ranks' writes
//     arrive in. The burst buffer achieves this by statically
//     partitioning each node's capacity, fill bandwidth, and drain
//     bandwidth across its ranks.
//   - EndBurst drops every placement-dependent table. Retarget layers
//     over tiers the same way it layers over the configured TargetMap:
//     the FileSystem validates and installs the override map between
//     bursts, and the next BeginBurst snapshots the new placement, so a
//     tiered drain throttled by a contended target follows the
//     reorganized fan-in.
//
// The default "" / "gpfs" stack is property-test-pinned byte-identical
// (durations, ledger, bursts, profile, Render) to the
// pre-StorageModel FileSystem, with and without a Topology.
//
// # Open latency contract
//
// Config.OpenLatency is the default per-file open/metadata cost. A
// StorageModel may override it per write by returning a non-zero
// WriteCost.OpenSeconds (the burst-buffer tiers charge their own
// BurstBuffer.OpenLatency — NVMe metadata is cheaper than a GPFS
// metadata-server round trip); OpenSeconds == 0 means "use the config
// default", so models that predate the field keep their historical
// pricing. The open cost lands in WriteRecord.OpenSeconds, which is
// what lets the aggregation layer scale it and the report layer split
// it out of the duration.
//
// # Two-phase aggregation
//
// Config.Aggregation (an AggregationSpec: "all" or "K/node" aggregators,
// MIF or SIF layout, optional async staging) turns each burst into a
// two-phase collective. Ranks are packed node-by-node; each node block's
// first K ranks are aggregators. Member ranks ship their payload to
// their aggregator over the node-internal gather plane (GatherBandwidth
// split across the node's senders, snapshotted at BeginBurst) and pay no
// file open; aggregator ranks pay a layout-scaled open (MIF: A/n of the
// direct open storm; SIF: lock-serialized (1+2(A-1))/n). The GPFS tier
// takes its contention snapshot over the aggregator set, and each
// member time-shares its aggregator's stream. The async option stages
// the gathered payload through a per-aggregator fluid buffer
// (StagingCapacity, Tier "stage") that drains at the write rate and
// stalls to GPFS when full — the same fluid-buffer step as the burst
// buffer. The aggregation plan is a pure function of
// (Topology, spec, writer count), so aggregated ledgers obey the same
// determinism guarantee; the "all" spec is the identity and is pinned
// byte-identical to the direct path across all storage stacks. The
// gather phase is priced here, as a timing model: no message moves, so
// a burst stays one rank-major sequence of writes.
//
// # Streaming ledger consumers
//
// Attach(consumer) registers a LedgerConsumer; every EndBurst drains
// the just-completed burst to the consumers — rank-ascending, each
// rank's records in its own program order — and, by default, drops the
// records from the per-rank segments. The stream-order contract is deliberately
// weaker than Ledger()'s whole-run order (the stream is burst-major,
// the merged ledger rank-major) but every per-step subsequence of the
// two is identical, which is exactly what the fold keys on:
// CharacterizeFold keeps one table per key — per step, per (step, rank),
// per rank, per link, per write size — sums floats per key in arrival
// order and finalizes in sorted-key order, so a fold fed from the stream
// is bit-identical to the same fold fed from a materialized ledger.
// Links are a dense table: each (node, target) pair gets an id in
// first-seen order, each rank caches the id of its last link (looked up
// again only when failover or a retarget moves it), link totals are
// slices indexed by id, and finalization walks them through one id
// permutation sorted by (node, target). With the current step's
// accumulator cached too, a record touches no struct-keyed map.
// Per-node and per-target totals are derived from the rank and link
// tables, which rests on three ledger facts: a record with a target is a
// data record on a node, a rank's records all carry the same node, and
// directory records carry no bytes. Fold is that one fold fed from a
// slice — one reduction code path, exercised both ways; tests use it as
// the batch side of the fold == stream pins.
//
// Config.RetainLedger picks the retention policy: RetainAuto (the zero
// value) keeps records only while no consumer is attached, RetainNone
// always drops. TotalBytes and Clock survive dropping — they read
// per-rank counters, not records. Fold state is O(steps x (ranks +
// links)) aggregates plus one digest per distinct path, instead of
// O(writes) records, which is the memory bound
// every command and the campaign service layer depend on: each attaches
// its folds (and, for the Fig. 2 / Fig. 3 path listings, a log of path
// strings) before the run, and the ledgerretain analyzer keeps Ledger()
// calls out of every package but this one and the benchmark harness,
// so the bound cannot silently regress.
package iosim

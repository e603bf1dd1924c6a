// Package mpisim is an in-process message-passing runtime that stands in
// for MPI on Summit in the paper's experiments. Each simulated rank runs as
// a goroutine executing the same SPMD function; ranks communicate through
// tagged point-to-point messages and collectives (barrier, broadcast,
// reduce, gather, scan).
//
// No library package uses it. The burst writers (plotfile, checkpoint,
// MACSio) price a burst in one rank-major loop: an I/O burst moves no
// message between ranks, and iosim prices each rank's writes from that
// rank's clock alone. The mesh exchange is priced analytically from the
// box lists (amr.FillBoundaryTraffic). Its only remaining reader is the
// benchmark harness (cmd/amrio-bench), which still times an mpisim world
// per burst from outside.
//
// # Semantics
//
// Semantics follow MPI's eager protocol: Send never blocks (messages are
// buffered at the destination mailbox), Recv blocks until a message with a
// matching (source, tag) pair arrives. Matching messages from one source
// with one tag are delivered in send order — the same non-overtaking
// guarantee MPI makes — which is what keeps every SPMD program in this
// repository deterministic: library code always names its receive source,
// so a run's communication schedule is a pure function of the program,
// not of goroutine scheduling. AnySource exists for tests and
// experimentation and matches in mailbox-arrival order.
//
// # Mailbox architecture
//
// Each rank's mailbox buckets pending messages by (source, tag), so a
// named-source Recv matches in O(1) map lookups instead of scanning one
// flat queue per wakeup; during an N-to-N burst the old flat scan made
// matching quadratic in outstanding messages. AnySource receives scan
// only the bucket heads for the tag (bounded by the number of distinct
// senders) and take the earliest arrival by sequence stamp. Queues pop
// by advancing a head index (O(1)) and compact their dead prefix so a
// bucket that never fully drains stays bounded by its live depth.
//
// # Traffic accounting
//
// A World accumulates per-run message and byte counts (Stats). For
// topology-aware contention modeling, the amr package
// derives per-rank-pair volumes from its cached communication plans
// (amr.FillBoundaryTraffic) and prices them with iosim.Topology — the
// same model the write ledger uses. The same division of labor holds
// for two-phase I/O aggregation: the intra-node gather is priced inside
// iosim's burst model (iosim.AggregationSpec), not routed through
// mpisim.Gather.
package mpisim

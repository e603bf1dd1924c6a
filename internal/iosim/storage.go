package iosim

import "fmt"

// Pluggable storage-tier models. The paper characterizes AMReX/MACSio
// bursts against two very different backends — Summit's node-local NVMe
// burst buffers and the Alpine GPFS — so the pricing math cannot live
// welded inside FileSystem. A StorageModel prices data transfers; the
// FileSystem keeps the per-rank ledger, clocks, open latency, and jitter,
// and delegates BeginBurst/EndBurst/Price to the installed model.
//
// Four stacks are selectable by Config.Storage name:
//
//   - "" / "gpfs": the historical single-tier pricing — the aggregate
//     bandwidth pool, refined per (rank, target) link when a Topology is
//     configured. Byte-identical to the pre-StorageModel FileSystem
//     (property-test-pinned).
//   - "bb": node-local burst buffer. Each compute node owns an NVMe
//     partition (capacity + write bandwidth, split evenly across the
//     ranks packed on the node) that drains asynchronously to a GPFS
//     tier at a configured per-node rate. A write that fills the
//     partition mid-burst stalls: the remainder moves at the drain rate.
//   - "bb+gpfs": the tiered composition. Same buffer, but the drain is
//     priced against the GPFS tier's contention snapshot, so a congested
//     file system slows the drain and produces more stalls.
//
// Determinism contract: a model may snapshot cross-rank contention state
// only at BeginBurst; per-write state must be a function of (rank, the
// rank's clock, the write size) so ledgers are reproducible no matter
// in which order the ranks' writes arrive. The burst-buffer models honor this by
// statically partitioning each node's capacity, fill bandwidth, and
// drain bandwidth across its ranks — rank r's occupancy never depends on
// when rank s wrote.

// Storage model names accepted by Config.Storage (and, downstream, by
// campaign.Case.Storage and the -storage CLI flags).
const (
	// StorageDefault selects the same stack as StorageGPFS.
	StorageDefault = ""
	// StorageGPFS is the historical aggregate/per-link single-tier model.
	StorageGPFS = "gpfs"
	// StorageBB is the node-local burst-buffer tier with a fixed-rate
	// asynchronous drain.
	StorageBB = "bb"
	// StorageTiered stacks the burst buffer over the GPFS model: the
	// drain is throttled by the GPFS tier's contention snapshot.
	StorageTiered = "bb+gpfs"
)

// StorageKinds returns the non-empty storage model names, in sweep order.
func StorageKinds() []string {
	return []string{StorageGPFS, StorageBB, StorageTiered}
}

// ParseStorage validates a storage model name, rejecting unknown names
// the way unknown engines and distribution strategies are rejected. The
// empty string is the default ("gpfs") stack.
func ParseStorage(name string) (string, error) {
	switch name {
	case StorageDefault, StorageGPFS, StorageBB, StorageTiered:
		return name, nil
	}
	return "", fmt.Errorf("iosim: unknown storage model %q (valid: %q, %q, %q)",
		name, StorageGPFS, StorageBB, StorageTiered)
}

// Summit's published node-local burst-buffer constants.
const (
	// SummitBBNodeCapacity is the NVMe capacity of one Summit node
	// (1.6 TB Samsung PM1725a).
	SummitBBNodeCapacity = 1.6e12
	// SummitBBNodeBandwidth is one node's NVMe write bandwidth
	// (~2.1 GB/s sequential).
	SummitBBNodeBandwidth = 2.1e9
)

// BurstBuffer parameterizes the "bb" and "bb+gpfs" storage models. All
// quantities are per compute node; the model splits them evenly across
// the ranks packed on a node, so per-rank behavior is deterministic
// in any order of the ranks' writes.
type BurstBuffer struct {
	// NodeCapacity is the NVMe bytes one node can buffer
	// (0 selects SummitBBNodeCapacity).
	NodeCapacity float64
	// NodeBandwidth is one node's NVMe write bandwidth in bytes/second
	// (0 selects SummitBBNodeBandwidth).
	NodeBandwidth float64
	// DrainBandwidth is one node's asynchronous drain rate to the GPFS
	// tier in bytes/second — the node's single drain stream. 0 selects
	// the default per-writer GPFS stream (DefaultConfig's 2 GB/s). The
	// tiered model additionally caps the drain by the GPFS tier's
	// current per-writer contention snapshot.
	DrainBandwidth float64
	// Nodes is the number of compute nodes ranks pack onto. 0 falls back
	// to the configured Topology's node count, then to 1 (every rank
	// shares a single node's partition — the degenerate laptop case).
	Nodes int
	// RanksPerNode fixes the packing; 0 derives ceil(writers/Nodes) at
	// each BeginBurst, mirroring Topology.RanksPerNode.
	RanksPerNode int
	// OpenLatency is the per-file open/metadata cost in seconds for
	// writes the buffer absorbs (TierBB) — an NVMe open is much cheaper
	// than a GPFS create storm. 0 inherits Config.OpenLatency (the GPFS
	// tier's cost), keeping historical ledgers byte-identical; writes
	// that stall through to the backing tier always pay the GPFS open.
	OpenLatency float64
}

// DefaultBurstBuffer returns the Summit-flavored burst buffer for a node
// count: 1.6 TB NVMe per node at 2.1 GB/s, draining on one default GPFS
// writer stream per node.
func DefaultBurstBuffer(nodes int) BurstBuffer {
	return BurstBuffer{
		NodeCapacity:   SummitBBNodeCapacity,
		NodeBandwidth:  SummitBBNodeBandwidth,
		DrainBandwidth: DefaultConfig().PerWriterBandwidth,
		Nodes:          nodes,
	}
}

// Tier labels the storage tier that absorbed a write.
type Tier string

// Tiers recorded on WriteRecord by the multi-tier models. Single-tier
// models leave records untiered ("") so historical ledgers are
// byte-identical.
const (
	// TierBB marks a write fully absorbed by the node-local buffer.
	TierBB Tier = "bb"
	// TierGPFS marks a write that filled the buffer and stalled through
	// to the GPFS tier at the drain rate.
	TierGPFS Tier = "gpfs"
)

// WriteCost is what a StorageModel charges for one data transfer. The
// FileSystem turns it into a ledger record: Duration =
// (OpenLatency + Seconds) * jitter, with StallSeconds scaled by the same
// jitter so the stall stays a sub-interval of the duration.
type WriteCost struct {
	// Seconds is the transfer time, excluding open latency and jitter.
	Seconds float64
	// Tier is the absorbing tier ("" for single-tier models).
	Tier Tier
	// StallSeconds is the portion of Seconds spent throttled to the
	// drain rate because the writer's buffer partition was full.
	StallSeconds float64
	// DrainSeconds is the projected time for the writer's buffer
	// occupancy to drain to the backing tier after this write.
	DrainSeconds float64
	// BBFill is the writer's partition occupancy fraction (0..1) right
	// after the write.
	BBFill float64
	// OpenSeconds is the tier's per-file open/metadata cost. 0 — the
	// zero value every pre-existing model returns — makes the
	// FileSystem fall back to Config.OpenLatency, so only models that
	// price opens per tier (BurstBuffer.OpenLatency) need to set it.
	// The aggregation layout scales it on the ledger record.
	OpenSeconds float64

	// Fault annotations set by an installed FaultInjector (fault.go);
	// all zero on the fault-free path so historical ledgers are
	// byte-identical.
	// Fault is the fault kind that touched the write ("" = none).
	Fault string
	// Retries counts failed attempts before the write went through.
	Retries int
	// FaultSeconds is the sub-interval of Seconds attributable to the
	// fault (retry backoff/timeouts, backlog replay, slowdown); it is
	// scaled by the same jitter as Seconds on the ledger record.
	FaultSeconds float64
	// Mitigated names the resilience policy that absorbed the fault
	// ("quarantine"); empty on the unmitigated path so PR-6 ledgers stay
	// byte-identical.
	Mitigated string
}

// StorageModel prices data transfers for a FileSystem, on the
// FileSystem's single writer. Within a burst, calls for different ranks
// may arrive in any order — rank by rank, as the plotfile and MACSio
// writers issue them, or interleaved — and the ledger, the consumer feed
// and the fault events must come out the same for every order that
// keeps each rank's own calls in program order
// (TestBurstLedgerIndependentOfRankOrder and
// TestBurstSequenceIndependentOfRankOrder pin this for every stack).
// BeginBurst must be idempotent for repeated calls with the same writer
// count; EndBurst/Retarget/Reset only run between bursts.
type StorageModel interface {
	// Name returns the selection name the model was built from.
	Name() string
	// BeginBurst snapshots contention state for an n-writer burst.
	BeginBurst(n int)
	// EndBurst restores the uncontended between-bursts state.
	EndBurst()
	// Price charges rank for moving nbytes; start is rank's simulated
	// clock when the transfer begins.
	Price(rank int, start float64, nbytes int64) WriteCost
	// Bandwidth reports rank's per-writer bandwidth under the current
	// snapshot — the drain-coupling hook for tiered models.
	Bandwidth(rank int) float64
	// Retarget invalidates placement-dependent snapshots after a
	// FileSystem.Retarget between bursts.
	Retarget()
	// Reset restores the post-New zero state.
	Reset()
}

// newStorageModel builds the configured stack. Unknown names panic: the
// campaign and CLI layers reject them with errors first (ParseStorage /
// campaign.Case.Validate), so reaching here is a programming error.
func newStorageModel(cfg Config, fs *FileSystem) StorageModel {
	gpfs := func() StorageModel {
		var m StorageModel
		if cfg.Topology.Enabled() {
			m = newTopologyModel(cfg, fs)
		} else {
			m = newAggregateModel(cfg)
		}
		if cfg.Aggregation.Enabled() {
			// Two-phase aggregation re-takes the GPFS contention
			// snapshot over the aggregator set (aggregation.go). The
			// burst-buffer stacks wrap this as their backing tier, so
			// tiered drains see aggregator-set contention too.
			m = newAggModel(cfg, fs, m)
		}
		return m
	}
	switch cfg.Storage {
	case StorageDefault, StorageGPFS:
		return gpfs()
	case StorageBB:
		return newBBModel(StorageBB, cfg, gpfs())
	case StorageTiered:
		return newBBModel(StorageTiered, cfg, gpfs())
	}
	panic(fmt.Sprintf("iosim: unknown storage model %q (validate configs with ParseStorage)", cfg.Storage))
}

// aggregateModel is the historical shared-bandwidth-pool pricing,
// extracted verbatim from the pre-StorageModel FileSystem: BeginBurst
// snapshots one per-writer share of Config.AggregateBandwidth, read by
// every write.
type aggregateModel struct {
	cfg Config
	// bw is the per-writer bandwidth under the current contention state.
	bw float64
}

func newAggregateModel(cfg Config) *aggregateModel {
	return &aggregateModel{cfg: cfg, bw: snapshotBandwidth(cfg, 0)}
}

func (m *aggregateModel) Name() string { return StorageGPFS }

func (m *aggregateModel) BeginBurst(n int) { m.bw = snapshotBandwidth(m.cfg, n) }

func (m *aggregateModel) EndBurst() { m.bw = snapshotBandwidth(m.cfg, 0) }

func (m *aggregateModel) Bandwidth(rank int) float64 { return m.bw }

func (m *aggregateModel) Price(rank int, start float64, nbytes int64) WriteCost {
	return WriteCost{Seconds: float64(nbytes) / m.Bandwidth(rank)}
}

func (m *aggregateModel) Retarget() {}

func (m *aggregateModel) Reset() { m.EndBurst() }

// topologyModel refines the aggregate pool into the per-(rank, target)
// link pricing: BeginBurst publishes one bandwidth per rank (NIC share
// on its node, fan-in share on its target), ranks outside the declared
// burst fall back to the scalar snapshot. Extracted verbatim from the
// PR-3 FileSystem, including the snapshot-reuse semantics (a pure
// function of (topology, n), invalidated by Retarget) and the
// ranks-per-node label coupling.
type topologyModel struct {
	aggregateModel
	fs *FileSystem
	// link is the per-rank bandwidth table for the current burst; nil
	// between bursts, in which case the scalar snapshot applies.
	link *linkSnapshot
}

func newTopologyModel(cfg Config, fs *FileSystem) *topologyModel {
	return &topologyModel{aggregateModel: *newAggregateModel(cfg), fs: fs}
}

func (m *topologyModel) BeginBurst(n int) {
	m.aggregateModel.BeginBurst(n)
	if t := m.fs.topology(); t.Enabled() && n > 0 {
		// The snapshot is a pure function of (topology, n) — Retarget
		// invalidates it — so repeated BeginBurst(n) calls, one per
		// burst of the same width, reuse the published table instead of
		// recomputing the O(n) shares.
		if m.link == nil || len(m.link.perRank) != n {
			m.fs.rpn = t.ranksPerNode(n)
			m.link = t.snapshot(m.cfg, n)
		}
	}
}

func (m *topologyModel) EndBurst() {
	m.aggregateModel.EndBurst()
	m.link = nil
}

func (m *topologyModel) Bandwidth(rank int) float64 {
	if m.link != nil && rank < len(m.link.perRank) {
		return m.link.perRank[rank]
	}
	return m.aggregateModel.Bandwidth(rank)
}

func (m *topologyModel) Price(rank int, start float64, nbytes int64) WriteCost {
	return WriteCost{Seconds: float64(nbytes) / m.Bandwidth(rank)}
}

func (m *topologyModel) Retarget() { m.link = nil }

func (m *topologyModel) Reset() {
	m.aggregateModel.Reset()
	m.link = nil
}

// bbRank is one rank's private slice of the burst buffer: its partition
// occupancy and the clock time of its last transfer's end (drain decays
// occupancy over the gap between transfers).
type bbRank struct {
	occ  float64
	last float64
}

// rankState returns rank's entry in ranks, creating it on first use. No
// other rank touches it (static partitioning).
func rankState(ranks map[int]*bbRank, rank int) *bbRank {
	st := ranks[rank]
	if st == nil {
		st = &bbRank{}
		ranks[rank] = st
	}
	return st
}

// bbModel is the node-local burst-buffer tier, optionally stacked over
// the GPFS tier ("bb+gpfs"). Writes fill the rank's NVMe partition at
// the partition's fill bandwidth while the drain empties it
// concurrently; a write that fills the partition stalls, moving its
// remainder at the drain rate. Occupancy persists across bursts and
// drains through compute gaps (AdvanceClock / inter-burst clock time),
// which is what makes drain-compute overlap visible in the ledger.
type bbModel struct {
	name    string
	spec    BurstBuffer
	backing StorageModel // the GPFS tier: drain coupling (tiered) + labels
	tiered  bool

	ranks  map[int]*bbRank
	burstN int
	// Per-rank shares for the current packing.
	capR, bwR, drainR float64
}

// newBBModel normalizes the spec (zero fields take the Summit defaults,
// the node count falls back to the topology's) and seeds the
// single-writer-per-node shares.
func newBBModel(name string, cfg Config, backing StorageModel) *bbModel {
	spec := cfg.BurstBuffer
	if spec.NodeCapacity <= 0 {
		spec.NodeCapacity = SummitBBNodeCapacity
	}
	if spec.NodeBandwidth <= 0 {
		spec.NodeBandwidth = SummitBBNodeBandwidth
	}
	if spec.DrainBandwidth <= 0 {
		spec.DrainBandwidth = DefaultConfig().PerWriterBandwidth
	}
	if spec.Nodes <= 0 {
		if cfg.Topology.Enabled() {
			spec.Nodes = cfg.Topology.Nodes
		} else {
			spec.Nodes = 1
		}
	}
	m := &bbModel{
		name:    name,
		spec:    spec,
		backing: backing,
		tiered:  name == StorageTiered,
		ranks:   map[int]*bbRank{},
	}
	m.setShares(0)
	return m
}

// setShares resolves the per-rank partition for an n-writer burst.
func (m *bbModel) setShares(n int) {
	rpn := m.spec.RanksPerNode
	if rpn <= 0 {
		rpn = 1
		if n > 0 {
			rpn = (n + m.spec.Nodes - 1) / m.spec.Nodes
		}
	}
	m.burstN = n
	m.capR = m.spec.NodeCapacity / float64(rpn)
	m.bwR = m.spec.NodeBandwidth / float64(rpn)
	m.drainR = m.spec.DrainBandwidth / float64(rpn)
}

func (m *bbModel) Name() string { return m.name }

func (m *bbModel) BeginBurst(n int) {
	m.backing.BeginBurst(n)
	if n > 0 && n != m.burstN {
		m.setShares(n)
	}
}

// EndBurst keeps the burst's shares (occupancy keeps draining at the
// same per-rank rate between bursts) and only resets the backing tier.
func (m *bbModel) EndBurst() { m.backing.EndBurst() }

func (m *bbModel) Bandwidth(rank int) float64 { return m.bwR }

// drainRate is rank's drain stream: the tiered stack drains through the
// GPFS tier, whose contention snapshot caps it.
func (m *bbModel) drainRate(rank int) float64 {
	d := m.drainR
	if m.tiered {
		if bw := m.backing.Bandwidth(rank); bw < d {
			d = bw
		}
	}
	return d
}

func (m *bbModel) Price(rank int, start float64, nbytes int64) WriteCost {
	st := rankState(m.ranks, rank)
	capR, b, d := m.capR, m.bwR, m.drainRate(rank)
	if dt := start - st.last; dt > 0 {
		st.occ -= dt * d
		if st.occ < 0 {
			st.occ = 0
		}
	}
	sec, stall, end := bbFill(st.occ, capR, b, d, nbytes)
	st.occ = end
	st.last = start + sec
	cost := WriteCost{Seconds: sec, Tier: TierBB, StallSeconds: stall}
	if stall > 0 {
		cost.Tier = TierGPFS
	} else if m.spec.OpenLatency > 0 {
		// Fully buffer-absorbed writes open against the NVMe tier;
		// stalled writes went through to GPFS and pay its open (the
		// zero value, resolved by the FileSystem).
		cost.OpenSeconds = m.spec.OpenLatency
	}
	if d > 0 {
		cost.DrainSeconds = end / d
	}
	if capR > 0 {
		cost.BBFill = end / capR
	}
	return cost
}

// bbFill advances one rank's buffer partition through a write: occ bytes
// buffered at the start, cap partition capacity, b fill bandwidth, d
// concurrent drain bandwidth. Returns the transfer time, the stall time
// (the excess over full-speed caused by a filled partition), and the end
// occupancy. occ may exceed cap when a re-packed burst shrank the
// rank's share after bytes were buffered; the surplus is preserved —
// write-through consumes the whole drain, so the backlog only shrinks
// between transfers — never silently dropped.
func bbFill(occ, cap, b, d float64, nbytes int64) (sec, stall, end float64) {
	bytes := float64(nbytes)
	if bytes <= 0 {
		return 0, 0, occ
	}
	if b <= 0 {
		b = 1 // degenerate-config guard, mirroring snapshotBandwidth
	}
	if d <= 0 {
		d = 1
	}
	if b <= d {
		// The drain keeps up: the partition never grows while writing.
		sec = bytes / b
		end = occ + bytes - d*sec
		if end < 0 {
			end = 0
		}
		return sec, 0, end
	}
	free := cap - occ
	if free < 0 {
		free = 0
	}
	net := b - d // partition growth rate while writing at full speed
	if grow := bytes * net / b; grow <= free {
		return bytes / b, 0, occ + grow
	}
	// Phase 1 fills the remaining headroom at full speed; phase 2 moves
	// the remainder write-through at the drain rate, leaving the
	// partition at capacity (or at the inherited surplus above it).
	tFill := free / net
	rest := bytes - b*tFill
	sec = tFill + rest/d
	end = cap
	if occ > cap {
		end = occ
	}
	return sec, sec - bytes/b, end
}

// DropBuffer implements BufferFaults: a buffer-loss fault discards rank's
// partition contents as of start on rank's clock. The lost backlog must be
// rewritten through the backing tier, so the replay cost is the drained
// occupancy over the rank's drain stream. Touches only rank-private state
// (static partitioning), matching Price.
func (m *bbModel) DropBuffer(rank int, start float64) float64 {
	st, d := rankState(m.ranks, rank), m.drainRate(rank)
	if dt := start - st.last; dt > 0 {
		st.occ -= dt * d
		if st.occ < 0 {
			st.occ = 0
		}
	}
	occ := st.occ
	st.occ = 0
	st.last = start
	if d <= 0 || occ <= 0 {
		return 0
	}
	return occ / d
}

// FallbackBandwidth implements BufferFaults: the backing-tier stream
// bandwidth rank writes at while its buffer partition is out.
func (m *bbModel) FallbackBandwidth(rank int) float64 {
	return m.backing.Bandwidth(rank)
}

func (m *bbModel) Retarget() { m.backing.Retarget() }

func (m *bbModel) Reset() {
	m.backing.Reset()
	m.ranks = map[int]*bbRank{}
	m.setShares(0)
}

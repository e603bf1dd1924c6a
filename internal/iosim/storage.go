package iosim

import "fmt"

// Storage-tier models. The paper characterizes AMReX/MACSio bursts
// against two very different backends — Summit's node-local NVMe burst
// buffers and the Alpine GPFS — so the pricing math cannot live welded
// inside FileSystem. A StorageModel prices data transfers; the
// FileSystem keeps the per-rank ledger, clocks, open latency, and jitter,
// and delegates BeginBurst/EndBurst/Price to the installed model.
//
// Every stack bottoms out in one GPFS tier (gpfsModel), with the
// optional burst buffer on top. Config.Storage selects the stack:
//
//   - "" / "gpfs": the GPFS tier alone. Without a Topology or an
//     AggregationSpec it is the aggregate bandwidth pool; with either,
//     BeginBurst takes one contention snapshot over the burst's writers
//     (every rank, or the aggregators of the two-phase plan) and prices
//     each rank at its writer's NIC/fan-in share. Byte-identical to the
//     pre-StorageModel FileSystem (property-test-pinned).
//   - "bb": node-local burst buffer over the GPFS tier. Each compute
//     node owns an NVMe partition (capacity + write bandwidth, split
//     evenly across the ranks packed on the node) that drains
//     asynchronously at a configured per-node rate. A write that fills
//     the partition mid-burst stalls: the remainder moves at the drain
//     rate.
//   - "bb+gpfs": the same buffer, but each rank's drain is also capped by
//     its GPFS-tier bandwidth, so a congested file system slows the drain
//     and produces more stalls.
//
// The burst buffer and async aggregation staging share one fluid-buffer
// step (fluid.step).
//
// Determinism contract: a model may snapshot cross-rank contention state
// only at BeginBurst; per-write state must be a function of (rank, the
// rank's clock, the write size) so ledgers are reproducible no matter
// in which order the ranks' writes arrive. The buffers honor this by
// statically partitioning each node's capacity, fill bandwidth, and
// drain bandwidth across its ranks — rank r's occupancy never depends on
// when rank s wrote.

// Storage model names accepted by Config.Storage (and, downstream, by
// campaign.Case.Storage and the -storage CLI flags).
const (
	// StorageDefault selects the same stack as StorageGPFS.
	StorageDefault = ""
	// StorageGPFS is the GPFS tier alone.
	StorageGPFS = "gpfs"
	// StorageBB is the node-local burst-buffer tier with a fixed-rate
	// asynchronous drain.
	StorageBB = "bb"
	// StorageTiered stacks the burst buffer over the GPFS model: the
	// drain is throttled by the GPFS tier's contention snapshot.
	StorageTiered = "bb+gpfs"
)

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
// count; EndBurst only runs between bursts, and drops every
// placement-dependent table, so the next BeginBurst sees the placement a
// FileSystem.Retarget installed in between.
type StorageModel interface {
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
}

// newStorageModel builds the configured stack: the GPFS tier, wrapped
// by the burst buffer for "bb" and "bb+gpfs". Unknown names panic: the
// campaign and CLI layers reject them with errors first (ParseStorage /
// campaign.Case.Validate), so reaching here is a programming error.
func newStorageModel(cfg Config, fs *FileSystem) StorageModel {
	gpfs := &gpfsModel{cfg: cfg, fs: fs, bw: snapshotBandwidth(cfg, 0)}
	switch cfg.Storage {
	case StorageDefault, StorageGPFS:
		return gpfs
	case StorageBB, StorageTiered:
		return newBBModel(cfg, gpfs)
	}
	panic(fmt.Sprintf("iosim: unknown storage model %q (validate configs with ParseStorage)", cfg.Storage))
}

// gpfsModel is the GPFS tier every stack bottoms out in. Without a
// topology or aggregation it is the aggregate pool: every write moves at
// one per-writer share of Config.AggregateBandwidth. Otherwise
// BeginBurst takes one contention snapshot over the burst's writers —
// every rank, or the aggregators of the two-phase plan — and publishes
// one bandwidth per rank: its writer's share of the pool, capped by the
// writer's share of its node's NIC and of its target's fan-in, divided
// by the rank's gather-group size (members time-share their
// aggregator's stream). Ranks past the declared burst price at the
// scalar share. Under async aggregation a rank's writes land in its
// share of the aggregator's staging buffer instead (fluid.step).
type gpfsModel struct {
	cfg Config
	fs  *FileSystem
	// bw is the scalar per-writer share of the pool for the declared
	// writer count.
	bw float64
	// write[r] is rank r's bandwidth for the current burst; nil between
	// bursts and whenever neither a topology nor aggregation is
	// configured, in which case bw applies.
	write []float64
	// plan is the two-phase schedule write was snapshotted over; nil
	// without aggregation.
	plan *aggPlan
	// stage holds each rank's async staging buffer. Occupancy persists
	// across bursts and drains through the compute gaps.
	stage buffers
}

func (m *gpfsModel) BeginBurst(n int) {
	m.bw = snapshotBandwidth(m.cfg, n)
	t := m.fs.topology()
	if n <= 0 || len(m.write) == n || (!t.Enabled() && !m.cfg.Aggregation.Enabled()) {
		return // the aggregate pool, or a repeated BeginBurst(n)
	}
	writers := n
	m.plan = nil
	if m.cfg.Aggregation.Enabled() {
		m.plan = m.fs.aggPlanFor(n)
		writers = m.plan.aggs
	}
	writes := func(r int) bool { return m.plan == nil || m.plan.agg[r] == r }
	var rpn int
	var nodeW, targetW []int
	if t.Enabled() {
		rpn = t.ranksPerNode(n)
		nodeW = make([]int, t.Nodes)
		if t.Targets > 0 {
			targetW = make([]int, t.Targets)
		}
		for r := 0; r < n; r++ {
			if writes(r) {
				nodeW[t.nodeOf(r, rpn)]++
				if targetW != nil {
					targetW[t.targetOf(r)]++
				}
			}
		}
	}
	base := snapshotBandwidth(m.cfg, writers)
	m.write = make([]float64, n)
	for r := 0; r < n; r++ {
		if !writes(r) {
			continue
		}
		bw := base
		if nodeW != nil && t.NICBandwidth > 0 {
			if share := t.NICBandwidth / float64(nodeW[t.nodeOf(r, rpn)]); share < bw {
				bw = share
			}
		}
		if targetW != nil && t.TargetBandwidth > 0 {
			if share := t.TargetBandwidth / float64(targetW[t.targetOf(r)]); share < bw {
				bw = share
			}
		}
		if bw <= 0 {
			bw = 1
		}
		m.write[r] = bw
	}
	if p := m.plan; p != nil {
		// agg[r] <= r, so a descending walk reads each aggregator's own
		// share before its group divides it.
		for r := n - 1; r >= 0; r-- {
			m.write[r] = m.write[p.agg[r]] / float64(p.group[r])
		}
	}
}

func (m *gpfsModel) EndBurst() {
	m.bw = snapshotBandwidth(m.cfg, 0)
	m.write, m.plan = nil, nil
}

func (m *gpfsModel) Bandwidth(rank int) float64 {
	if rank < len(m.write) {
		return m.write[rank]
	}
	return m.bw
}

func (m *gpfsModel) Price(rank int, start float64, nbytes int64) WriteCost {
	if m.cfg.Aggregation.Async && rank < len(m.write) {
		// The rank's share of its aggregator's staging buffer absorbs at
		// gather-plane speed and drains at the write bandwidth; a full
		// buffer stalls the writer through to GPFS, which is what bounds
		// staging memory.
		a, g := &m.cfg.Aggregation, float64(m.plan.group[rank])
		return m.stage.at(rank).step(start, a.stagingCap()/g, a.gatherPlane()/g, m.write[rank], nbytes, TierStage)
	}
	return WriteCost{Seconds: float64(nbytes) / m.Bandwidth(rank)}
}

// fluid is one rank's private slice of a buffer — a burst-buffer
// partition or an async staging share: its occupancy and the clock time
// its last transfer ended. No other rank touches it (static
// partitioning), which is what keeps buffered ledgers independent of the
// order the ranks' writes arrive in.
type fluid struct{ occ, last float64 }

// buffers holds each rank's fluid, indexed by rank.
type buffers []fluid

// at returns rank's fluid, growing the table on first use. The pointer
// is valid until the next growth.
func (b *buffers) at(rank int) *fluid {
	if rank >= len(*b) {
		*b = append(*b, make([]fluid, rank+1-len(*b))...)
	}
	return &(*b)[rank]
}

// drain empties the buffer at rate d over the gap between its last
// transfer and start.
func (f *fluid) drain(start, d float64) {
	if dt := start - f.last; dt > 0 {
		f.occ -= dt * d
		if f.occ < 0 {
			f.occ = 0
		}
	}
}

// step moves nbytes through the buffer starting at start: capR is the
// capacity, b the fill bandwidth and d the concurrent drain bandwidth. A
// write that fits is labelled tier; one that fills the buffer stalls,
// moves its remainder at the drain rate and is labelled TierGPFS.
func (f *fluid) step(start, capR, b, d float64, nbytes int64, tier Tier) WriteCost {
	f.drain(start, d)
	sec, stall, end := fluidFill(f.occ, capR, b, d, nbytes)
	f.occ, f.last = end, start+sec
	cost := WriteCost{Seconds: sec, Tier: tier, StallSeconds: stall}
	if stall > 0 {
		cost.Tier = TierGPFS
	}
	if d > 0 {
		cost.DrainSeconds = end / d
	}
	if capR > 0 {
		cost.BBFill = end / capR
	}
	return cost
}

// fluidFill advances one rank's buffer through a write: occ bytes
// buffered at the start, cap capacity, b fill bandwidth, d concurrent
// drain bandwidth. Returns the transfer time, the stall time (the excess
// over full-speed caused by a filled buffer), and the end occupancy. occ
// may exceed cap when a re-packed burst shrank the rank's share after
// bytes were buffered; the surplus is preserved — write-through consumes
// the whole drain, so the backlog only shrinks between transfers —
// never silently dropped.
func fluidFill(occ, cap, b, d float64, nbytes int64) (sec, stall, end float64) {
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
		// The drain keeps up: the buffer never grows while writing.
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
	net := b - d // buffer growth rate while writing at full speed
	if grow := bytes * net / b; grow <= free {
		return bytes / b, 0, occ + grow
	}
	// Phase 1 fills the remaining headroom at full speed; phase 2 moves
	// the remainder write-through at the drain rate, leaving the buffer
	// at capacity (or at the inherited surplus above it).
	tFill := free / net
	rest := bytes - b*tFill
	sec = tFill + rest/d
	end = cap
	if occ > cap {
		end = occ
	}
	return sec, sec - bytes/b, end
}

// bbModel is the node-local burst-buffer tier over the GPFS tier. Writes
// fill the rank's NVMe partition at the partition's fill bandwidth while
// the drain empties it concurrently; a write that fills the partition
// stalls, moving its remainder at the drain rate. Occupancy persists
// across bursts and drains through compute gaps (AdvanceClock /
// inter-burst clock time), which is what makes drain-compute overlap
// visible in the ledger. "bb+gpfs" additionally caps each rank's drain
// by its GPFS-tier bandwidth.
type bbModel struct {
	spec    BurstBuffer
	backing *gpfsModel
	tiered  bool

	ranks  buffers
	burstN int
	// Per-rank shares for the current packing.
	capR, bwR, drainR float64
}

// newBBModel normalizes the spec (zero fields take the Summit defaults,
// the node count falls back to the topology's) and seeds the
// single-writer-per-node shares.
func newBBModel(cfg Config, backing *gpfsModel) *bbModel {
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
	m := &bbModel{spec: spec, backing: backing, tiered: cfg.Storage == StorageTiered}
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
	cost := m.ranks.at(rank).step(start, m.capR, m.bwR, m.drainRate(rank), nbytes, TierBB)
	if cost.Tier == TierBB && m.spec.OpenLatency > 0 {
		// Fully buffer-absorbed writes open against the NVMe tier;
		// stalled writes went through to GPFS and pay its open (the
		// zero value, resolved by the FileSystem).
		cost.OpenSeconds = m.spec.OpenLatency
	}
	return cost
}

// DropBuffer implements BufferFaults: a buffer-loss fault discards rank's
// partition contents as of start on rank's clock. The lost backlog must be
// rewritten through the backing tier, so the replay cost is the drained
// occupancy over the rank's drain stream. Touches only rank-private state
// (static partitioning), matching Price.
func (m *bbModel) DropBuffer(rank int, start float64) float64 {
	f, d := m.ranks.at(rank), m.drainRate(rank)
	f.drain(start, d)
	occ := f.occ
	f.occ, f.last = 0, start
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

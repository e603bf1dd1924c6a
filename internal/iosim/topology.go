package iosim

// Distribution-mapping-aware per-link contention model.
//
// The aggregate model (Config.AggregateBandwidth shared by all writers)
// reproduces the paper's published Summit/Alpine numbers, but real
// pre-exascale I/O cost is set by where writers land relative to the
// storage hardware: every compute node has a finite NIC injection
// bandwidth, and a GPFS file system fans writes into a fixed set of NSD
// servers, each with its own service rate. Two writers packed onto one
// node contend for that node's NIC even when the backend is idle; a
// thousand writers striped across 77 NSD servers contend per server, not
// per file system. A Topology describes that placement so BeginBurst can
// snapshot a per-(rank, target) link bandwidth instead of one global rate.
//
// The zero Topology disables the model entirely: every duration, ledger
// record, burst statistic and characterization is byte-identical to the
// aggregate model (property-tested), so existing configurations are
// unaffected unless they opt in.

// Topology describes rank placement and storage fan-in for the per-link
// contention model. The zero value disables it (Enabled returns false).
type Topology struct {
	// Nodes is the number of compute nodes; 0 disables the topology model.
	Nodes int
	// RanksPerNode fixes the packed block placement: rank r lives on node
	// (r / RanksPerNode) % Nodes. When 0, the packing is derived at each
	// BeginBurst as ceil(writers/Nodes) — the jsrun-style dense layout.
	RanksPerNode int
	// NICBandwidth caps one node's injection bandwidth in bytes/second
	// (shared by all ranks placed on that node). 0 means uncapped.
	NICBandwidth float64
	// Targets is the number of storage targets (GPFS NSD servers). Rank r
	// writes through target r % Targets, the round-robin placement GPFS
	// striping produces for an N-to-N burst. 0 means no target modeling.
	Targets int
	// TargetBandwidth caps one target's service rate in bytes/second,
	// shared by every writer fanned into it. 0 means uncapped.
	TargetBandwidth float64
	// TargetMap overrides the round-robin rank→target placement: rank r
	// writes through target TargetMap[r]. Ranks at or beyond
	// len(TargetMap), and entries outside [0, Targets), fall back to
	// r % Targets. nil keeps the round-robin layout, byte-identical to
	// the historical model. amr.RemapToTargets produces these maps; use
	// FileSystem.Retarget to install one between bursts.
	TargetMap []int
}

// Summit-like published constants used by SummitTopology.
const (
	// SummitNICBandwidth is a Summit node's dual-rail EDR InfiniBand
	// injection bandwidth (~2 x 12.5 GB/s).
	SummitNICBandwidth = 25e9
	// AlpineNSDServers is the number of NSD servers behind Summit's
	// Alpine GPFS file system.
	AlpineNSDServers = 77
)

// SummitTopology returns a Summit/Alpine-flavored topology for the given
// node count: 25 GB/s NIC per node and the aggregate Alpine bandwidth
// split across its 77 NSD servers. RanksPerNode is left 0 (derived per
// burst); use TopologyForCase to pin it from a rank count.
func SummitTopology(nodes int) Topology {
	return Topology{
		Nodes:           nodes,
		NICBandwidth:    SummitNICBandwidth,
		Targets:         AlpineNSDServers,
		TargetBandwidth: DefaultConfig().AggregateBandwidth / AlpineNSDServers,
	}
}

// TopologyForCase derives the Summit topology for a campaign case shape:
// nprocs ranks packed onto nodes compute nodes, ceil(nprocs/nodes) per
// node. nodes <= 0 returns the zero (disabled) topology.
func TopologyForCase(nodes, nprocs int) Topology {
	if nodes <= 0 {
		return Topology{}
	}
	t := SummitTopology(nodes)
	if nprocs > 0 {
		t.RanksPerNode = (nprocs + nodes - 1) / nodes
	}
	return t
}

// Enabled reports whether the per-link model is active.
func (t Topology) Enabled() bool { return t.Nodes > 0 }

// ranksPerNode resolves the packing for a burst of n writers: the explicit
// RanksPerNode when set, else ceil(n/Nodes), else 1.
func (t Topology) ranksPerNode(n int) int {
	if t.RanksPerNode > 0 {
		return t.RanksPerNode
	}
	if n > 0 && t.Nodes > 0 {
		return (n + t.Nodes - 1) / t.Nodes
	}
	return 1
}

// NodeOf returns the compute node hosting rank under packed block
// placement for a job of nprocs ranks: node (rank/rpn) % Nodes. Ranks
// beyond Nodes*rpn wrap, so sparse rank ids stay well-defined. Disabled
// topologies return -1.
func (t Topology) NodeOf(rank, nprocs int) int {
	if !t.Enabled() || rank < 0 {
		return -1
	}
	return t.nodeOf(rank, t.ranksPerNode(nprocs))
}

func (t Topology) nodeOf(rank, rpn int) int {
	return (rank / rpn) % t.Nodes
}

// TargetOf returns the storage target rank's data files fan into — the
// TargetMap entry when one is installed, round-robin otherwise — or -1
// when targets are not modeled.
func (t Topology) TargetOf(rank int) int {
	if !t.Enabled() || t.Targets <= 0 || rank < 0 {
		return -1
	}
	return t.targetOf(rank)
}

// targetOf assumes Targets > 0 and rank >= 0.
func (t Topology) targetOf(rank int) int {
	if rank < len(t.TargetMap) {
		if m := t.TargetMap[rank]; m >= 0 && m < t.Targets {
			return m
		}
	}
	return rank % t.Targets
}

// linkSnapshot is the per-burst bandwidth table BeginBurst publishes when
// the topology is enabled: perRank[r] is rank r's effective per-link
// bandwidth under the declared contention (NIC sharing on its node, fan-in
// sharing on its target, and the aggregate/per-writer baseline). Ranks at
// or beyond len(perRank) — writers outside the declared burst — fall back
// to the scalar snapshot, matching the aggregate model's semantics.
type linkSnapshot struct {
	perRank []float64
}

// snapshot computes the per-rank link bandwidths for an n-writer burst.
func (t Topology) snapshot(cfg Config, n int) *linkSnapshot {
	rpn := t.ranksPerNode(n)
	nodeWriters := make([]int, t.Nodes)
	var targetWriters []int
	if t.Targets > 0 {
		targetWriters = make([]int, t.Targets)
	}
	for r := 0; r < n; r++ {
		nodeWriters[t.nodeOf(r, rpn)]++
		if targetWriters != nil {
			targetWriters[t.targetOf(r)]++
		}
	}
	base := snapshotBandwidth(cfg, n)
	perRank := make([]float64, n)
	for r := range perRank {
		bw := base
		if t.NICBandwidth > 0 {
			if share := t.NICBandwidth / float64(nodeWriters[t.nodeOf(r, rpn)]); share < bw {
				bw = share
			}
		}
		if targetWriters != nil && t.TargetBandwidth > 0 {
			if share := t.TargetBandwidth / float64(targetWriters[t.targetOf(r)]); share < bw {
				bw = share
			}
		}
		if bw <= 0 {
			bw = 1
		}
		perRank[r] = bw
	}
	return &linkSnapshot{perRank: perRank}
}

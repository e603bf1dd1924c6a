package iosim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Two-phase collective aggregation. The paper's Summit/Alpine measurements
// show NSD fan-in dominating burst cost at scale, and the related work's
// answer is to bound the writer count: Hercule-style subfiling gathers each
// node's data onto a few aggregator ranks before touching the file system,
// and ADIOS2-style staging additionally drains the aggregated data
// asynchronously under the next compute phase. An AggregationSpec turns
// every burst into that two-phase collective:
//
//  1. Gather: non-aggregator ranks ship their share over the intra-node
//     plane to their node's aggregator(s), priced against the spec's
//     gather bandwidth split across the node's concurrent senders.
//  2. Write: only aggregator ranks open files and drive the storage
//     stack, so the NIC/NSD contention snapshot is taken over the
//     aggregator set — lower fan-in, fewer opens — and each member's
//     transfer time-shares its aggregator's stream.
//
// The "all" spec (one aggregator per rank, zero gather, MIF layout) is
// byte-identical to the direct-write path for every storage stack
// (property-test-pinned), so aggregation is strictly opt-in.
//
// Determinism contract (gather phase): the gather is priced from a
// BeginBurst snapshot — per-rank sender counts and bandwidths are a pure
// function of (topology, spec, writer count) — and each rank's gather time
// depends only on (rank, its own write size), never on another rank's
// progress, so ledgers are reproducible in any order of the ranks' writes.

// Aggregator-placement and file-layout names accepted by
// AggregationSpec.Aggregators / .Layout.
const (
	// AggregatorsAll makes every rank its own aggregator: zero gather,
	// the historical N-to-N direct-write pattern.
	AggregatorsAll = "all"
	// LayoutMIF is the multiple-independent-files layout (the default):
	// each aggregator creates its own file, so per-burst metadata cost
	// scales with the aggregator count.
	LayoutMIF = "mif"
	// LayoutSIF is the single-shared-file layout: one create amortized
	// across aggregators, plus a per-writer lock-negotiation term that
	// grows with the aggregator count.
	LayoutSIF = "sif"
)

// Summit-flavored aggregation defaults.
const (
	// DefaultGatherBandwidth is the intra-node gather plane in
	// bytes/second (NVLink-class shared-memory transport), divided across
	// a node's concurrent senders.
	DefaultGatherBandwidth = 50e9
	// DefaultStagingCapacity is one aggregator's in-memory staging buffer
	// in bytes for the async mode, shared by its gather group.
	DefaultStagingCapacity = 4e9
	// sifLockFactor is the per-peer lock-negotiation cost of the shared
	// SIF file, in open-latency units: each writer pays
	// (1 + sifLockFactor*(A-1))/n opens, so a single aggregator prices
	// identically to MIF and contention grows with the writer count.
	sifLockFactor = 2.0
)

// TierStage marks a write absorbed by an aggregator group's in-memory
// staging buffer under the async aggregation mode; the buffered bytes
// drain to the storage stack under the following compute gap.
const TierStage Tier = "stage"

// AggregationSpec configures two-phase collective output. The zero value
// disables aggregation and keeps the write path byte-identical to the
// direct N-to-N pattern. Validate rejects malformed specs; New panics on
// an invalid enabled spec, so CLI and campaign layers validate first.
type AggregationSpec struct {
	// Aggregators places the phase-two writers: "all" (every rank writes
	// its own share — the direct pattern) or "K/node" (K >= 1 aggregators
	// per compute node; without a topology, K aggregators total).
	Aggregators string `json:"aggregators"`
	// Layout selects the file layout the aggregators write: "" or "mif"
	// for multiple independent files, "sif" for one shared file.
	Layout string `json:"layout,omitempty"`
	// Async enables staging: aggregated data lands in an in-memory
	// buffer at gather-plane speed and drains to storage under the
	// inter-burst compute gap (the fluid fill/drain model). Inert under
	// the "bb"/"bb+gpfs" stacks, whose node-local NVMe already stages.
	Async bool `json:"async,omitempty"`
	// GatherBandwidth overrides the intra-node gather plane in
	// bytes/second (0 selects DefaultGatherBandwidth).
	GatherBandwidth float64 `json:"gather_bandwidth,omitempty"`
	// StagingCapacity overrides one aggregator's async staging buffer in
	// bytes (0 selects DefaultStagingCapacity).
	StagingCapacity float64 `json:"staging_capacity,omitempty"`
}

// Enabled reports whether the spec turns the two-phase collective on.
func (a AggregationSpec) Enabled() bool { return a.Aggregators != "" }

// Validate rejects malformed specs with actionable errors, the way
// ParseStorage rejects unknown stacks and faults.Plan.Validate rejects
// unknown fault kinds.
func (a AggregationSpec) Validate() error {
	switch {
	case a.Aggregators == "":
		return fmt.Errorf("iosim: aggregation spec needs aggregators: %q for the direct per-rank pattern, or \"K/node\" for K aggregators per node", AggregatorsAll)
	case a.Aggregators == AggregatorsAll:
	case strings.HasSuffix(a.Aggregators, "/node"):
		count := strings.TrimSuffix(a.Aggregators, "/node")
		k, err := strconv.Atoi(count)
		if err != nil {
			return fmt.Errorf("iosim: aggregators %q: %q is not an integer count (want \"K/node\", e.g. \"1/node\")", a.Aggregators, count)
		}
		if k <= 0 {
			return fmt.Errorf("iosim: aggregators %q: %d per node leaves no rank to write; want K >= 1", a.Aggregators, k)
		}
	default:
		return fmt.Errorf("iosim: unknown aggregators %q (valid: %q, or \"K/node\" with K >= 1)", a.Aggregators, AggregatorsAll)
	}
	switch a.Layout {
	case "", LayoutMIF, LayoutSIF:
	default:
		return fmt.Errorf("iosim: unknown aggregation layout %q (valid: %q for one file per aggregator, %q for one shared file)", a.Layout, LayoutMIF, LayoutSIF)
	}
	if a.GatherBandwidth < 0 {
		return fmt.Errorf("iosim: aggregation gather bandwidth must be positive, got %g", a.GatherBandwidth)
	}
	if a.StagingCapacity < 0 {
		return fmt.Errorf("iosim: aggregation staging capacity must be positive, got %g", a.StagingCapacity)
	}
	return nil
}

// UnmarshalJSON decodes a spec rejecting unknown fields, so a typo in a
// campaign case file fails loudly instead of silently running the direct
// pattern (same contract as faults.Parse).
func (a *AggregationSpec) UnmarshalJSON(data []byte) error {
	type raw AggregationSpec // shed methods to avoid recursion
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r raw
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("aggregation spec: %w", err)
	}
	*a = AggregationSpec(r)
	return nil
}

// ParseAggregation parses a CLI spec string: an aggregator placement
// ("all", "1/node", "2/node", ...) with optional "+"-joined options
// ("mif", "sif", "async"), e.g. "1/node+sif+async". The result is
// validated.
func ParseAggregation(s string) (AggregationSpec, error) {
	parts := strings.Split(s, "+")
	spec := AggregationSpec{Aggregators: strings.TrimSpace(parts[0])}
	for _, opt := range parts[1:] {
		switch strings.TrimSpace(opt) {
		case LayoutMIF:
			spec.Layout = LayoutMIF
		case LayoutSIF:
			spec.Layout = LayoutSIF
		case "async":
			spec.Async = true
		default:
			return AggregationSpec{}, fmt.Errorf("iosim: unknown aggregation option %q in %q (valid: %q, %q, \"async\")", opt, s, LayoutMIF, LayoutSIF)
		}
	}
	if err := spec.Validate(); err != nil {
		return AggregationSpec{}, err
	}
	return spec, nil
}

// Token returns a filesystem- and sweep-name-safe identifier for the
// spec: "all", "1per-node", "2per-node-sif-async", ...
func (a AggregationSpec) Token() string {
	tok := strings.ReplaceAll(a.Aggregators, "/", "per-")
	if a.Layout == LayoutSIF {
		tok += "-sif"
	}
	if a.Async {
		tok += "-async"
	}
	return tok
}

// perNode returns the aggregators-per-node count, 0 for the "all"
// placement. Callers validate first (New panics on invalid specs).
func (a AggregationSpec) perNode() int {
	if a.Aggregators == AggregatorsAll {
		return 0
	}
	k, _ := strconv.Atoi(strings.TrimSuffix(a.Aggregators, "/node"))
	return k
}

// gatherPlane resolves the intra-node gather bandwidth.
func (a AggregationSpec) gatherPlane() float64 {
	if a.GatherBandwidth > 0 {
		return a.GatherBandwidth
	}
	return DefaultGatherBandwidth
}

// stagingCap resolves one aggregator's async staging capacity.
func (a AggregationSpec) stagingCap() float64 {
	if a.StagingCapacity > 0 {
		return a.StagingCapacity
	}
	return DefaultStagingCapacity
}

// AggregatorMap returns the rank→aggregator assignment for an n-rank job
// on topology t: entry r is the rank whose storage stream carries rank r's
// bytes. nil when aggregation is disabled or every rank writes for itself
// ("all") — the identity cases, where callers should use ranks directly.
// Inter-burst layout reorganization (amr.RemapToTargets) must fold
// per-rank loads through this map before balancing targets: only
// aggregator ranks drive storage, so balancing raw per-rank loads would
// double-count the non-writing members.
func (a AggregationSpec) AggregatorMap(t Topology, n int) []int {
	if !a.Enabled() || a.perNode() == 0 || n <= 0 {
		return nil
	}
	return a.plan(t, n).agg
}

// aggPlan is the per-burst two-phase schedule: a pure function of
// (topology, spec, writer count), built at BeginBurst, reused while the
// writer count holds, and invalidated by Retarget (member target labels
// follow the aggregator's placement).
type aggPlan struct {
	n    int
	aggs int // number of aggregator ranks
	// agg[r] is r's aggregator (agg[r] == r ⇒ r writes to storage).
	agg []int
	// group[r] is the number of ranks sharing r's aggregator.
	group []int
	// gatherBW[r] is r's intra-node gather bandwidth (the plane divided
	// across the node's concurrent senders); 0 for aggregators, whose
	// own share needs no gather.
	gatherBW []float64
	// openScale[r] scales the per-write open latency: 0 for members (no
	// file opens), for aggregators the layout's metadata model
	// normalized so the "all"+MIF identity spec scales by exactly 1.
	openScale []float64
	// tgt[r] is the storage target r's bytes fan into — the aggregator's
	// target — or -1 when targets are not modeled.
	tgt []int
}

// plan builds the schedule. Aggregators are the first K ranks of each
// node's packed block; member i of a block funnels to aggregator i mod K,
// so groups are contiguous-strided and deterministic. Without a topology
// the whole job is one block ("K/node" means K aggregators total).
func (a AggregationSpec) plan(t Topology, n int) *aggPlan {
	p := &aggPlan{
		n:         n,
		agg:       make([]int, n),
		group:     make([]int, n),
		gatherBW:  make([]float64, n),
		openScale: make([]float64, n),
		tgt:       make([]int, n),
	}
	k := a.perNode()
	rpn := n
	if t.Enabled() {
		rpn = t.ranksPerNode(n)
	}
	if rpn <= 0 {
		rpn = 1
	}
	plane := a.gatherPlane()
	for b0 := 0; b0 < n; b0 += rpn {
		bs := rpn
		if b0+bs > n {
			bs = n - b0
		}
		ka := bs // "all": every rank aggregates for itself
		if k > 0 && k < bs {
			ka = k
		}
		senders := bs - ka
		for i := 0; i < bs; i++ {
			r := b0 + i
			p.agg[r] = b0 + i%ka
			p.group[p.agg[r]]++
			if p.agg[r] != r {
				p.gatherBW[r] = plane / float64(senders)
			}
		}
	}
	for r := 0; r < n; r++ {
		if p.agg[r] == r {
			p.aggs++
		}
		// agg[r] <= r, so the aggregator's group count is already final.
		p.group[r] = p.group[p.agg[r]]
	}
	// Per-aggregator metadata scale, normalized to the direct path: MIF
	// creates one file per aggregator (an A-file create storm against
	// the metadata service — exactly 1 at the all-ranks identity), SIF
	// amortizes one create but pays lock negotiation per peer.
	scale := float64(p.aggs) / float64(n)
	if a.Layout == LayoutSIF {
		scale = (1 + sifLockFactor*(float64(p.aggs)-1)) / float64(n)
	}
	targets := t.Enabled() && t.Targets > 0
	for r := 0; r < n; r++ {
		p.tgt[r] = -1
		if targets {
			p.tgt[r] = t.targetOf(p.agg[r])
		}
		if p.agg[r] == r {
			p.openScale[r] = scale
		}
	}
	return p
}

// gather returns rank's phase-one time for shipping nbytes to its
// aggregator (0 for aggregators).
func (p *aggPlan) gather(rank int, nbytes int64) float64 {
	if bw := p.gatherBW[rank]; bw > 0 {
		return float64(nbytes) / bw
	}
	return 0
}

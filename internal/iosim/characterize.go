package iosim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// Darshan-style I/O characterization. The paper's background section leans
// on Carns et al.'s continuous characterization methodology ("Understanding
// and improving computational science storage access through continuous
// characterization", MSST 2011); this file computes the equivalent summary
// from the simulated filesystem's write stream so that proxy and
// application runs can be compared with the same vocabulary: operation
// counts, size histograms, per-rank balance, and burst cadence.
//
// Since Design 10 the computation is a streaming fold (CharacterizeFold,
// a LedgerConsumer): the profile accumulates as records are produced, so
// no caller needs the materialized ledger. Characterize is the batch
// wrapper — the same fold fed from a slice — which makes fold and batch
// results identical by construction.

// Characterization is a compact I/O profile of a run.
type Characterization struct {
	TotalBytes  int64
	TotalWrites int
	UniqueFiles int
	Ranks       int
	// DirOps counts directory-creation metadata records; they are kept
	// out of the write-size distribution and file counts so data-file
	// profiles stay comparable across writers that do and don't create
	// directories (plotfile vs MACSio).
	DirOps int

	// Write-size distribution.
	MinWrite, MaxWrite int64
	MeanWrite          float64
	P50Write, P95Write int64

	// Power-of-two size histogram: bucket k counts writes with
	// 2^k <= bytes < 2^(k+1); bucket 0 also holds zero-byte writes.
	SizeHistogram map[int]int

	// Per-rank balance of bytes written (max/mean; 1.0 = perfect).
	RankImbalance float64

	// Burst cadence.
	Bursts            int
	MeanBurstBytes    float64
	MeanInterArrival  float64 // simulated seconds between burst starts
	AggregateBandwith float64 // bytes / total busy seconds (max rank clock)

	// Topology decomposition, populated only when the ledger carries
	// per-link labels (records with Node >= 0); all zero — and absent
	// from Render — under the aggregate model.
	NodesUsed     int     // distinct compute nodes that wrote data
	TargetsUsed   int     // distinct storage targets that received data
	LinksUsed     int     // distinct (node, target) links
	NodeImbalance float64 // max/mean bytes per node (1.0 = perfect)
	LinkImbalance float64 // max/mean bytes per link (1.0 = perfect)

	// Storage-tier decomposition, populated only when the ledger carries
	// tier labels (the "bb"/"bb+gpfs" storage models); all zero — and
	// absent from Render — under single-tier models.
	BBBytes      int64   // bytes absorbed at burst-buffer speed
	SpillBytes   int64   // bytes that stalled through to the GPFS tier
	MaxBBFill    float64 // peak buffer-partition occupancy fraction
	StallRanks   int     // stall stragglers summed over bursts
	StallSeconds float64 // sum over bursts of the max-rank stall time
	DrainSeconds float64 // sum over bursts of the post-burst drain tails

	// Aggregation decomposition, populated only when the ledger carries
	// two-phase gather records (Config.Aggregation with a non-identity
	// spec); GatherSeconds zero — and the line absent from Render —
	// under the direct pattern.
	Writers       int     // distinct ranks paying a file open (fan-in after aggregation)
	GatherSeconds float64 // intra-node gather time summed over data records
	OpenSeconds   float64 // open/metadata time summed over data records

	// Fault decomposition, populated only when the ledger carries
	// injected-fault labels (an installed FaultInjector); all zero — and
	// absent from Render — under fault-free runs.
	FaultWrites  int     // writes an injected fault touched
	Retries      int     // failed attempts summed over all writes
	FaultSeconds float64 // sum over bursts of the max-rank fault time
}

// CharacterizeFold is the streaming form of Characterize: a
// LedgerConsumer that accumulates the profile as records arrive and
// finalizes it on Profile(). State is O(steps + ranks + distinct write
// sizes), never O(writes) — the exact percentiles come from a size
// multiset (size → count), and every order-sensitive float accumulator
// (gather/open/write time, node busy time) is keyed per rank and
// finalized in sorted-rank order so stream order and batch order produce
// bit-identical results.
//
// It is also the one per-run reduction every report reads: besides the
// profile and the bursts it keeps the per-step span, per-target bytes
// and per-node load that the placement, storage, aggregation, topology
// and recovery rows are computed from (StepSpan, TargetBytes, Nodes,
// DurationSplit).
type CharacterizeFold struct {
	n int // records consumed (0 distinguishes the zero profile)
	c Characterization

	// files counts distinct paths by 64-bit FNV-1a hash rather than by
	// retained string: UniqueFiles only needs the cardinality, and a
	// campaign case touches O(ranks x dumps) paths — storing them would
	// be the largest O(writes) term left in the fold. FNV is
	// deterministic, so fold == batch is unaffected; a 64-bit collision
	// (odds ~1e-8 even at a million files) would only undercount
	// UniqueFiles by one.
	files     map[uint64]struct{}
	ranks     map[int]int64
	split     map[int]*rankSplit
	nodes     map[int]int64
	targets   map[int]int64
	links     map[burstLink]int64
	sizeCount map[int64]int // write-size multiset for exact percentiles

	// targetBytes counts every record carrying a target label and
	// nodeBusy every record carrying a node label, directory records
	// included: the per-link report rows.
	targetBytes map[int]int64
	nodeBusy    map[nodeRank]float64

	endMax float64
	steps  map[int]*StepSpan

	bursts *BurstFold
}

// rankSplit is one rank's data-record duration split and whether it
// paid a file open.
type rankSplit struct {
	gather, open, write float64
	writer              bool
}

// nodeRank keys one rank's records on one node.
type nodeRank struct{ node, rank int }

// StepSpan is one step's simulated extent: the earliest record start
// and the latest record end.
type StepSpan struct{ Start, End float64 }

// NodeLoad is one compute node's share of a topology-labeled run.
type NodeLoad struct {
	Bytes       int64   // data bytes the node's ranks wrote
	BusySeconds float64 // record seconds on the node, directory records included
}

// NewCharacterizeFold returns an empty fold.
func NewCharacterizeFold() *CharacterizeFold {
	f := &CharacterizeFold{
		files:       map[uint64]struct{}{},
		ranks:       map[int]int64{},
		split:       map[int]*rankSplit{},
		nodes:       map[int]int64{},
		targets:     map[int]int64{},
		links:       map[burstLink]int64{},
		sizeCount:   map[int64]int{},
		targetBytes: map[int]int64{},
		nodeBusy:    map[nodeRank]float64{},
		steps:       map[int]*StepSpan{},
		bursts:      NewBurstFold(),
	}
	f.c.SizeHistogram = map[int]int{}
	f.c.MinWrite = math.MaxInt64
	return f
}

// Fold feeds a materialized ledger through a fresh fold: the batch form
// of every reduction the fold offers.
func Fold(records []WriteRecord) *CharacterizeFold {
	f := NewCharacterizeFold()
	for _, r := range records {
		f.Consume(r)
	}
	return f
}

// Consume folds one record into the profile.
func (f *CharacterizeFold) Consume(r WriteRecord) {
	f.n++
	end := r.Start + r.Duration
	if end > f.endMax {
		f.endMax = end
	}
	if sp := f.steps[r.Labels.Step]; sp == nil {
		f.steps[r.Labels.Step] = &StepSpan{Start: r.Start, End: end}
	} else {
		if r.Start < sp.Start {
			sp.Start = r.Start
		}
		if end > sp.End {
			sp.End = end
		}
	}
	f.bursts.Consume(r)
	if r.Target >= 0 {
		f.targetBytes[r.Target] += r.Bytes
	}
	if r.Node >= 0 {
		f.nodeBusy[nodeRank{r.Node, r.Rank}] += r.Duration
	}
	if r.Dir {
		f.c.DirOps++
		return
	}
	f.c.TotalBytes += r.Bytes
	f.c.TotalWrites++
	h := fnv.New64a()
	h.Write([]byte(r.Path))
	f.files[h.Sum64()] = struct{}{}
	f.ranks[r.Rank] += r.Bytes
	sp := f.split[r.Rank]
	if sp == nil {
		sp = &rankSplit{}
		f.split[r.Rank] = sp
	}
	sp.gather += r.GatherSeconds
	sp.open += r.OpenSeconds
	if rest := r.Duration - r.GatherSeconds - r.OpenSeconds; rest > 0 {
		sp.write += rest
	}
	if r.OpenSeconds > 0 {
		sp.writer = true
	}
	if r.Node >= 0 {
		f.nodes[r.Node] += r.Bytes
		if r.Target >= 0 {
			f.targets[r.Target] += r.Bytes
		}
		f.links[burstLink{r.Node, r.Target}] += r.Bytes
	}
	f.sizeCount[r.Bytes]++
	if r.Bytes < f.c.MinWrite {
		f.c.MinWrite = r.Bytes
	}
	if r.Bytes > f.c.MaxWrite {
		f.c.MaxWrite = r.Bytes
	}
	f.c.SizeHistogram[sizeBucket(r.Bytes)]++
}

// Flush implements LedgerConsumer; the fold keeps no buffered state, so
// it is a no-op — Profile stays callable before and after.
func (f *CharacterizeFold) Flush() {}

// Bursts finalizes the embedded burst fold — the same []BurstStat that
// BurstStats would compute from the materialized ledger.
func (f *CharacterizeFold) Bursts() []BurstStat {
	return f.bursts.Stats()
}

// Profile finalizes the fold into the profile of everything consumed so
// far. It does not reset the fold. The returned SizeHistogram shares the
// fold's map; treat it as read-only if the fold keeps consuming.
func (f *CharacterizeFold) Profile() Characterization {
	if f.n == 0 {
		return Characterization{}
	}
	c := f.c
	c.UniqueFiles = len(f.files)
	c.Ranks = len(f.ranks)
	for _, sp := range f.split {
		if sp.writer {
			c.Writers++
		}
	}
	c.NodesUsed = len(f.nodes)
	c.TargetsUsed = len(f.targets)
	c.LinksUsed = len(f.links)
	c.NodeImbalance = bytesImbalance(f.nodes)
	c.LinkImbalance = bytesImbalance(f.links)
	if c.TotalWrites == 0 {
		c.MinWrite = 0
		return c
	}
	c.MeanWrite = float64(c.TotalBytes) / float64(c.TotalWrites)
	c.P50Write = f.percentile(c.TotalWrites / 2)
	c.P95Write = f.percentile((c.TotalWrites * 95) / 100)

	c.RankImbalance = bytesImbalance(f.ranks)
	c.GatherSeconds, c.OpenSeconds, _ = f.DurationSplit()

	bursts := f.bursts.Stats()
	c.Bursts = len(bursts)
	if len(bursts) > 0 {
		var bb float64
		for _, b := range bursts {
			bb += float64(b.Bytes)
			c.BBBytes += b.BBBytes
			c.SpillBytes += b.SpillBytes
			if b.MaxBBFill > c.MaxBBFill {
				c.MaxBBFill = b.MaxBBFill
			}
			c.StallRanks += b.StallRanks
			c.StallSeconds += b.StallSeconds
			c.DrainSeconds += b.DrainSeconds
			c.FaultWrites += b.FaultWrites
			c.Retries += b.Retries
			c.FaultSeconds += b.FaultSeconds
		}
		c.MeanBurstBytes = bb / float64(len(bursts))
	}
	if len(bursts) > 1 {
		// Inter-arrival from the earliest record start per burst step.
		var ordered []float64
		for _, b := range bursts {
			ordered = append(ordered, f.steps[b.Step].Start)
		}
		sort.Float64s(ordered)
		var gaps float64
		for i := 1; i < len(ordered); i++ {
			gaps += ordered[i] - ordered[i-1]
		}
		c.MeanInterArrival = gaps / float64(len(ordered)-1)
	}
	if f.endMax > 0 {
		c.AggregateBandwith = float64(c.TotalBytes) / f.endMax
	}
	return c
}

// DurationSplit returns the data records' intra-node gather, file-open
// and write-phase seconds (each record's duration minus its gather and
// open time, when positive), each summed over per-rank subtotals in
// sorted-rank order: the per-rank subsequences are order-identical
// between stream and batch feeds, so the totals are too (see the
// maprangefloat analyzer for why an unordered float sum would not be).
func (f *CharacterizeFold) DurationSplit() (gather, open, write float64) {
	ranks := make([]int, 0, len(f.split))
	for r := range f.split {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		sp := f.split[r]
		gather += sp.gather
		open += sp.open
		write += sp.write
	}
	return gather, open, write
}

// StepSpan returns step's simulated extent (the zero span for a step no
// record carried).
func (f *CharacterizeFold) StepSpan(step int) StepSpan {
	if sp := f.steps[step]; sp != nil {
		return *sp
	}
	return StepSpan{}
}

// TargetBytes returns the bytes per storage target over every record
// carrying a target label. The map is the fold's own; treat it as
// read-only.
func (f *CharacterizeFold) TargetBytes() map[int]int64 {
	return f.targetBytes
}

// Nodes returns the load of every compute node a record was labeled
// with, or an empty map under the aggregate model. Each node's busy
// seconds are summed over its ranks in sorted order, so stream and batch
// feeds agree bit for bit.
func (f *CharacterizeFold) Nodes() map[int]NodeLoad {
	keys := make([]nodeRank, 0, len(f.nodeBusy))
	for k := range f.nodeBusy {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].rank < keys[j].rank
	})
	out := map[int]NodeLoad{}
	for _, k := range keys {
		l := out[k.node]
		l.Bytes = f.nodes[k.node]
		l.BusySeconds += f.nodeBusy[k]
		out[k.node] = l
	}
	return out
}

// percentile returns the idx-th (0-based) smallest write size from the
// size multiset — the same value indexing a fully sorted size slice
// would give, without materializing one.
func (f *CharacterizeFold) percentile(idx int) int64 {
	sizes := make([]int64, 0, len(f.sizeCount))
	for s := range f.sizeCount {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	seen := 0
	for _, s := range sizes {
		seen += f.sizeCount[s]
		if idx < seen {
			return s
		}
	}
	if n := len(sizes); n > 0 {
		return sizes[n-1]
	}
	return 0
}

// Characterize computes the profile from ledger records: the streaming
// fold fed from a slice.
func Characterize(records []WriteRecord) Characterization {
	return Fold(records).Profile()
}

// bytesImbalance returns max/mean over a byte-count map (0 when empty).
// Sums accumulate in int64 — exact and order-independent — so the result
// does not depend on map iteration order (float addition is not
// associative; see the maprangefloat analyzer).
func bytesImbalance[K comparable](m map[K]int64) float64 {
	if len(m) == 0 {
		return 0
	}
	var sum, max int64
	for _, b := range m {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum > 0 {
		return float64(max) / (float64(sum) / float64(len(m)))
	}
	return 0
}

// sizeBucket returns floor(log2(bytes)) with zero-size writes in bucket 0.
func sizeBucket(bytes int64) int {
	if bytes <= 1 {
		return 0
	}
	b := 0
	for v := bytes; v > 1; v >>= 1 {
		b++
	}
	return b
}

// Render formats the profile as a Darshan-like text summary.
func (c Characterization) Render() string {
	var sb strings.Builder
	fmt.Fprintln(&sb, "I/O characterization (Darshan-style)")
	fmt.Fprintf(&sb, "  total bytes      : %d\n", c.TotalBytes)
	fmt.Fprintf(&sb, "  write ops        : %d across %d files, %d ranks\n",
		c.TotalWrites, c.UniqueFiles, c.Ranks)
	fmt.Fprintf(&sb, "  metadata ops     : %d directory creations\n", c.DirOps)
	fmt.Fprintf(&sb, "  write size       : min %d  p50 %d  mean %.0f  p95 %d  max %d\n",
		c.MinWrite, c.P50Write, c.MeanWrite, c.P95Write, c.MaxWrite)
	fmt.Fprintf(&sb, "  rank imbalance   : %.3f (max/mean)\n", c.RankImbalance)
	fmt.Fprintf(&sb, "  bursts           : %d, mean %.0f bytes, inter-arrival %.4gs\n",
		c.Bursts, c.MeanBurstBytes, c.MeanInterArrival)
	fmt.Fprintf(&sb, "  aggregate bw     : %.4g B/s\n", c.AggregateBandwith)
	if c.NodesUsed > 0 {
		fmt.Fprintf(&sb, "  topology         : %d nodes, %d targets, %d links\n",
			c.NodesUsed, c.TargetsUsed, c.LinksUsed)
		fmt.Fprintf(&sb, "  node imbalance   : %.3f (max/mean)\n", c.NodeImbalance)
		fmt.Fprintf(&sb, "  link imbalance   : %.3f (max/mean)\n", c.LinkImbalance)
	}
	if c.BBBytes > 0 || c.SpillBytes > 0 || c.MaxBBFill > 0 {
		fmt.Fprintf(&sb, "  storage tiers    : bb %d B, gpfs spill %d B\n", c.BBBytes, c.SpillBytes)
		fmt.Fprintf(&sb, "  burst buffer     : peak fill %.3f, %d stall stragglers, stall %.4gs, drain tail %.4gs\n",
			c.MaxBBFill, c.StallRanks, c.StallSeconds, c.DrainSeconds)
	}
	if c.GatherSeconds > 0 {
		fmt.Fprintf(&sb, "  aggregation      : fan-in %d ranks -> %d writers, gather %.4gs, open %.4gs\n",
			c.Ranks, c.Writers, c.GatherSeconds, c.OpenSeconds)
	}
	if c.FaultWrites > 0 {
		fmt.Fprintf(&sb, "  faults           : %d writes touched, %d retries, fault time %.4gs\n",
			c.FaultWrites, c.Retries, c.FaultSeconds)
	}
	if len(c.SizeHistogram) > 0 {
		fmt.Fprintln(&sb, "  size histogram (log2 buckets):")
		buckets := make([]int, 0, len(c.SizeHistogram))
		for k := range c.SizeHistogram {
			buckets = append(buckets, k)
		}
		sort.Ints(buckets)
		for _, k := range buckets {
			fmt.Fprintf(&sb, "    2^%-2d..2^%-2d : %d\n", k, k+1, c.SizeHistogram[k])
		}
	}
	return sb.String()
}

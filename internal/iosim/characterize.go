package iosim

import (
	"fmt"
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

// CharacterizeFold is the streaming form of Characterize and of
// BurstStats: a LedgerConsumer that accumulates the profile and the
// per-step burst aggregates as records arrive, and finalizes them on
// Profile() and Bursts(). It is also the one per-run reduction every
// report reads: the placement, storage, aggregation, topology and
// recovery rows come from Bursts, StepSpan, TargetBytes, Nodes and
// DurationSplit.
//
// State is O(steps x ranks + distinct write sizes), never O(writes):
// each fact lives in one table keyed by what it describes — a step, a
// (step, rank), a rank, a link, a size — and per-node and per-target
// totals are derived from those at finalization. That derivation rests
// on three ledger facts (pinned by the campaign package's
// TestLedgerFactsHold): a record with Target >= 0 is a data record with
// Node >= 0, all of a rank's records carry the same Node, and directory
// records carry no bytes. Rank tables are slices indexed by rank, as the
// FileSystem's shards are (the ledger carries no negative rank), so
// walking them is walking ranks in sorted order.
//
// Every float accumulator is keyed per (step, rank), per rank or per
// link, never a bare running sum: per-key subsequences are
// order-identical between the stream and the batch ledger (the
// stream-order contract in consumer.go), and finalization walks keys in
// sorted order, so stream and batch feeds produce bit-identical results
// (the maprangefloat lesson). The exact percentiles come from the size
// multiset (size -> count).
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
	sizeCount map[int64]int // write-size multiset for exact percentiles
	links     map[burstLink]int64
	ranks     []rankRun // by rank
	steps     map[int]*stepAcc
	endMax    float64
}

// rankRun is one rank's run-long totals.
type rankRun struct {
	seen                bool    // carried at least one record
	node                int     // the rank's compute node (-1 without topology)
	data                bool    // wrote at least one data record
	bytes               int64   // data bytes
	gather, open, write float64 // data-record duration split
	writer              bool    // paid a file open
	busy                float64 // record seconds on its node, directory records included
}

// stepAcc is one step's span and burst aggregates.
type stepAcc struct {
	span                StepSpan
	bytes               int64
	files, dirs         int
	bbBytes, spillBytes int64
	maxFill             float64
	faultWrites         int
	retries             int
	ranks               []rankStep            // by rank
	links               map[burstLink]float64 // data-record seconds per link
}

// rankStep is one rank's share of one step.
type rankStep struct {
	seen    bool // carried at least one record in the step
	bytes   int64
	seconds float64 // record seconds, directory records included
	stall   float64 // drain-stall seconds
	drain   float64 // last tiered write's drain tail (program order)
	fault   float64 // injected-fault seconds
}

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
		files:     map[uint64]struct{}{},
		sizeCount: map[int64]int{},
		links:     map[burstLink]int64{},
		steps:     map[int]*stepAcc{},
	}
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

// Consume folds one record into the profile and its step's aggregates.
func (f *CharacterizeFold) Consume(r WriteRecord) {
	f.n++
	end := r.Start + r.Duration
	if end > f.endMax {
		f.endMax = end
	}
	st := f.steps[r.Labels.Step]
	if st == nil {
		st = &stepAcc{span: StepSpan{Start: r.Start, End: end}}
		f.steps[r.Labels.Step] = st
	} else {
		if r.Start < st.span.Start {
			st.span.Start = r.Start
		}
		if end > st.span.End {
			st.span.End = end
		}
	}
	st.ranks = grow(st.ranks, r.Rank)
	rs := &st.ranks[r.Rank]
	rs.seen = true
	f.ranks = grow(f.ranks, r.Rank)
	rr := &f.ranks[r.Rank]
	if !rr.seen {
		rr.seen = true
		rr.node = r.Node
	}
	st.bytes += r.Bytes
	rs.bytes += r.Bytes
	rs.seconds += r.Duration
	if r.Node >= 0 {
		rr.busy += r.Duration
	}
	if r.Tier != "" {
		switch r.Tier {
		case TierBB:
			st.bbBytes += r.Bytes
		case TierGPFS:
			st.spillBytes += r.Bytes
		}
		if r.BBFill > st.maxFill {
			st.maxFill = r.BBFill
		}
		rs.stall += r.StallSeconds
		rs.drain = r.DrainSeconds // program order: last write wins
	}
	if r.Fault != "" {
		st.faultWrites++
		st.retries += r.Retries
		rs.fault += r.FaultSeconds
	}
	if r.Dir {
		st.dirs++
		f.c.DirOps++
		return
	}

	st.files++
	f.c.TotalBytes += r.Bytes
	f.c.TotalWrites++
	h := uint64(14695981039346656037) // FNV-1a, as hash/fnv's New64a
	for i := 0; i < len(r.Path); i++ {
		h ^= uint64(r.Path[i])
		h *= 1099511628211
	}
	f.files[h] = struct{}{}
	rr.data = true
	rr.bytes += r.Bytes
	rr.gather += r.GatherSeconds
	rr.open += r.OpenSeconds
	if rest := r.Duration - r.GatherSeconds - r.OpenSeconds; rest > 0 {
		rr.write += rest
	}
	if r.OpenSeconds > 0 {
		rr.writer = true
	}
	if r.Node >= 0 {
		l := burstLink{r.Node, r.Target}
		f.links[l] += r.Bytes
		if st.links == nil {
			st.links = map[burstLink]float64{}
		}
		st.links[l] += r.Duration
	}
	f.sizeCount[r.Bytes]++
	if r.Bytes < f.c.MinWrite {
		f.c.MinWrite = r.Bytes
	}
	if r.Bytes > f.c.MaxWrite {
		f.c.MaxWrite = r.Bytes
	}
}

// Flush implements LedgerConsumer; the fold keeps no buffered state, so
// it is a no-op — Profile and Bursts stay callable before and after.
func (f *CharacterizeFold) Flush() {}

// Bursts finalizes the per-step aggregates into BurstStats sorted by
// step: the same []BurstStat that BurstStats computes from the
// materialized ledger. It does not reset the fold: calling it mid-run
// yields the bursts seen so far.
func (f *CharacterizeFold) Bursts() []BurstStat {
	steps := make([]int, 0, len(f.steps))
	for s := range f.steps {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	out := make([]BurstStat, 0, len(steps))
	for _, s := range steps {
		a := f.steps[s]
		st := BurstStat{
			Step: s, Bytes: a.bytes, Files: a.files, Dirs: a.dirs,
			BBBytes: a.bbBytes, SpillBytes: a.spillBytes, MaxBBFill: a.maxFill,
			FaultWrites: a.faultWrites, Retries: a.retries,
		}
		var sum float64
		nodeBytes := map[int]int64{}
		for r := range a.ranks {
			rs := &a.ranks[r]
			if !rs.seen {
				continue
			}
			st.Participants++
			st.WallSeconds = max(st.WallSeconds, rs.seconds)
			sum += rs.seconds
			st.StallSeconds = max(st.StallSeconds, rs.stall)
			if rs.stall > 0 {
				st.StallRanks++
			}
			st.DrainSeconds = max(st.DrainSeconds, rs.drain)
			st.FaultSeconds = max(st.FaultSeconds, rs.fault)
			if node := f.ranks[r].node; node >= 0 {
				nodeBytes[node] += rs.bytes
			}
		}
		if st.Participants > 0 {
			st.MeanSeconds = sum / float64(st.Participants)
			for _, rs := range a.ranks {
				if rs.seen && rs.seconds > 1.5*st.MeanSeconds {
					st.Stragglers++
				}
			}
		}
		if st.WallSeconds > 0 {
			st.EffectiveBW = float64(a.bytes) / st.WallSeconds
		}
		if len(nodeBytes) > 0 {
			st.Nodes = len(nodeBytes)
			st.NodeSkew = bytesImbalance(nodeBytes)
		}
		if len(a.links) > 0 {
			st.Links = len(a.links)
			links := make([]burstLink, 0, len(a.links))
			for l := range a.links {
				links = append(links, l)
			}
			sort.Slice(links, func(i, j int) bool {
				if links[i].node != links[j].node {
					return links[i].node < links[j].node
				}
				return links[i].target < links[j].target
			})
			var linkSum float64
			for _, l := range links {
				st.MaxLinkSeconds = max(st.MaxLinkSeconds, a.links[l])
				linkSum += a.links[l]
			}
			st.MeanLinkSeconds = linkSum / float64(len(a.links))
			if st.MeanLinkSeconds > 0 {
				st.LinkSkew = st.MaxLinkSeconds / st.MeanLinkSeconds
			}
		}
		out = append(out, st)
	}
	return out
}

// Profile finalizes the fold into the profile of everything consumed so
// far. It does not reset the fold.
func (f *CharacterizeFold) Profile() Characterization {
	if f.n == 0 {
		return Characterization{}
	}
	c := f.c
	c.UniqueFiles = len(f.files)
	rankBytes := map[int]int64{}
	for r, rr := range f.ranks {
		if rr.data {
			rankBytes[r] = rr.bytes
		}
		if rr.writer {
			c.Writers++
		}
	}
	c.Ranks = len(rankBytes)
	nodeBytes := f.nodeBytes()
	c.NodesUsed = len(nodeBytes)
	c.TargetsUsed = len(f.TargetBytes())
	c.LinksUsed = len(f.links)
	c.NodeImbalance = bytesImbalance(nodeBytes)
	c.LinkImbalance = bytesImbalance(f.links)
	c.SizeHistogram = map[int]int{}
	for size, n := range f.sizeCount {
		c.SizeHistogram[sizeBucket(size)] += n
	}
	if c.TotalWrites == 0 {
		c.MinWrite = 0
		return c
	}
	c.MeanWrite = float64(c.TotalBytes) / float64(c.TotalWrites)
	c.P50Write = f.percentile(c.TotalWrites / 2)
	c.P95Write = f.percentile((c.TotalWrites * 95) / 100)

	c.RankImbalance = bytesImbalance(rankBytes)
	c.GatherSeconds, c.OpenSeconds, _ = f.DurationSplit()

	bursts := f.Bursts()
	c.Bursts = len(bursts)
	if len(bursts) > 0 {
		var bb float64
		for _, b := range bursts {
			bb += float64(b.Bytes)
			c.BBBytes += b.BBBytes
			c.SpillBytes += b.SpillBytes
			c.MaxBBFill = max(c.MaxBBFill, b.MaxBBFill)
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
			ordered = append(ordered, f.steps[b.Step].span.Start)
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
	for _, rr := range f.ranks {
		gather += rr.gather
		open += rr.open
		write += rr.write
	}
	return gather, open, write
}

// StepSpan returns step's simulated extent (the zero span for a step no
// record carried).
func (f *CharacterizeFold) StepSpan(step int) StepSpan {
	if a := f.steps[step]; a != nil {
		return a.span
	}
	return StepSpan{}
}

// TargetBytes returns the data bytes per storage target, summed over
// the links that end at it (every record with a target is a data record
// on a node, so the links hold all of them).
func (f *CharacterizeFold) TargetBytes() map[int]int64 {
	out := map[int]int64{}
	for l, b := range f.links {
		if l.target >= 0 {
			out[l.target] += b
		}
	}
	return out
}

// Nodes returns the load of every compute node a record was labeled
// with, or an empty map under the aggregate model. Each node's busy
// seconds are summed over its ranks in sorted order, so stream and batch
// feeds agree bit for bit.
func (f *CharacterizeFold) Nodes() map[int]NodeLoad {
	bytes := f.nodeBytes()
	out := map[int]NodeLoad{}
	for _, rr := range f.ranks {
		if rr.seen && rr.node >= 0 {
			l := out[rr.node]
			l.Bytes = bytes[rr.node]
			l.BusySeconds += rr.busy
			out[rr.node] = l
		}
	}
	return out
}

// nodeBytes returns the data bytes per compute node, over the nodes
// whose ranks wrote data.
func (f *CharacterizeFold) nodeBytes() map[int]int64 {
	out := map[int]int64{}
	for _, rr := range f.ranks {
		if rr.data && rr.node >= 0 {
			out[rr.node] += rr.bytes
		}
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

// grow extends s with zero entries until index i exists.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
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

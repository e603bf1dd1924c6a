package iosim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// no caller needs the materialized ledger. Fold is the batch form — the
// same fold fed from a slice — which makes fold and batch results
// identical by construction.

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

// CharacterizeFold is a LedgerConsumer that accumulates the profile and
// the per-step burst aggregates as records arrive, and finalizes them on
// Profile() and Bursts(). It is the one per-run reduction every report
// reads: the characterization, the burst timeline and the placement,
// storage, aggregation, topology and recovery rows come from Profile,
// Bursts, StepSpan, TargetBytes, Nodes and DurationSplit.
//
// State is O(steps x (ranks + links) + distinct paths + distinct write
// sizes) — the path set, one 8-byte digest per file, is the only table
// that grows with the files a run writes. Each fact lives in one table
// keyed by what it describes — a step, a (step, rank), a rank, a link,
// a size, a path digest — and per-node and per-target totals are
// derived from those at finalization. That derivation rests
// on three ledger facts (pinned by the campaign package's
// TestLedgerFactsHold): a record with Target >= 0 is a data record with
// Node >= 0, all of a rank's records carry the same Node, and directory
// records carry no bytes. Rank tables are slices indexed by rank, as the
// FileSystem's shards are (the ledger carries no negative rank), so
// walking them is walking ranks in sorted order.
//
// A record touches no struct-keyed map on the common path. Records
// arrive burst by burst, so the fold caches the current step's
// accumulator and looks a step up only when the step changes. Each
// (node, target) link gets a dense id in first-seen order; every rank
// caches the id of its last link and looks it up again only when its
// target changes (failover, retarget). Link totals — run-long bytes and
// each step's seconds — are slices indexed by link id, and finalization
// walks them in sorted (node, target) order through one id permutation,
// re-sorted only when a new link appears.
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

	// files counts distinct paths by 64-bit digest (pathDigest) rather
	// than by retained string: UniqueFiles only needs the cardinality,
	// and a campaign case touches O(ranks x dumps) paths — storing them
	// would be the largest term left in the fold. The digest is
	// deterministic, so fold == batch is unaffected; a 64-bit collision
	// (odds ~1e-8 even at a million files) would only undercount
	// UniqueFiles by one.
	files     map[uint64]struct{}
	sizeCount map[int64]int // write-size multiset for exact percentiles
	ranks     []rankRun     // by rank
	steps     map[int]*stepAcc
	stepKeys  []int    // the keys of steps, ascending
	cur       *stepAcc // the last record's step accumulator
	curStep   int
	endMax    float64

	// Links by dense id, in first-seen order.
	linkIDs   map[burstLink]int
	links     []burstLink
	linkBytes []int64 // data bytes per link
	linkOrder []int   // link ids in sorted (node, target) order

	// Bursts' reusable per-step node table, by node: a node's entry
	// counts for the step being finalized when its gen matches.
	nodeTab  []nodeTally
	nodeSeen []int // nodes in nodeTab touched by the current step
	gen      int

	// bursts caches the last finalization, taken after burstsAt
	// records: Profile reads the bursts too, so a caller that wants both
	// pays for one finalization of each step, not two.
	bursts   []BurstStat
	burstsAt int
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
	link                int     // 1 + id of the link of its last data record; 0 before one
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
	ranks               []rankStep // by rank
	links               []stepLink // by link id
	nlinks              int        // links the step used
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

// stepLink is one link's share of one step.
type stepLink struct {
	used    bool    // carried at least one data record in the step
	seconds float64 // data-record seconds
}

// nodeTally is one node's data bytes in the step Bursts is finalizing.
type nodeTally struct {
	gen   int
	bytes int64
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
		steps:     map[int]*stepAcc{},
		linkIDs:   map[burstLink]int{},
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
	st := f.cur
	if st == nil || r.Labels.Step != f.curStep {
		st = f.step(r.Labels.Step, StepSpan{Start: r.Start, End: end})
		f.cur, f.curStep = st, r.Labels.Step
	}
	if r.Start < st.span.Start {
		st.span.Start = r.Start
	}
	if end > st.span.End {
		st.span.End = end
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
	f.files[pathDigest(r.Path)] = struct{}{}
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
		id := f.linkOf(rr, r.Node, r.Target)
		f.linkBytes[id] += r.Bytes
		st.links = grow(st.links, id)
		sl := &st.links[id]
		if !sl.used {
			sl.used = true
			st.nlinks++
		}
		sl.seconds += r.Duration
	}
	f.sizeCount[r.Bytes]++
	if r.Bytes < f.c.MinWrite {
		f.c.MinWrite = r.Bytes
	}
	if r.Bytes > f.c.MaxWrite {
		f.c.MaxWrite = r.Bytes
	}
}

// step returns step's accumulator, creating it with span when the step
// is new.
func (f *CharacterizeFold) step(step int, span StepSpan) *stepAcc {
	if st := f.steps[step]; st != nil {
		return st
	}
	// Sized for the ranks and links seen so far: a step is usually
	// another burst over the same ones.
	st := &stepAcc{
		span:  span,
		ranks: make([]rankStep, 0, len(f.ranks)),
		links: make([]stepLink, 0, len(f.links)),
	}
	f.steps[step] = st
	i, _ := slices.BinarySearch(f.stepKeys, step)
	f.stepKeys = slices.Insert(f.stepKeys, i, step)
	return st
}

// linkOf returns the dense id of the (node, target) link, from rr's
// cached last link when it is the same one.
func (f *CharacterizeFold) linkOf(rr *rankRun, node, target int) int {
	l := burstLink{node, target}
	if id := rr.link - 1; id >= 0 && f.links[id] == l {
		return id
	}
	id, ok := f.linkIDs[l]
	if !ok {
		id = len(f.links)
		f.linkIDs[l] = id
		f.links = append(f.links, l)
		f.linkBytes = append(f.linkBytes, 0)
	}
	rr.link = id + 1
	return id
}

// Flush implements LedgerConsumer; the fold keeps no buffered state, so
// it is a no-op — Profile and Bursts stay callable before and after.
func (f *CharacterizeFold) Flush() {}

// Bursts finalizes the per-step aggregates into BurstStats sorted by
// step. Directory records add their metadata latency to a rank's burst
// time but are counted apart from data files; topology labels add the
// per-node and per-link skews, tier labels the byte split, buffer fill,
// drain tails and stall stragglers (the drain tail relies on each rank's
// records arriving in program order), and fault labels the retries and
// fault time. It does not reset the fold: calling it mid-run yields the
// bursts seen so far. The result is shared with every call until the
// next Consume; callers read it and do not modify it.
func (f *CharacterizeFold) Bursts() []BurstStat {
	if f.bursts != nil && f.burstsAt == f.n {
		return f.bursts
	}
	if len(f.linkOrder) != len(f.links) {
		f.linkOrder = f.linkOrder[:0]
		for id := range f.links {
			f.linkOrder = append(f.linkOrder, id)
		}
		slices.SortFunc(f.linkOrder, func(a, b int) int {
			if c := cmp.Compare(f.links[a].node, f.links[b].node); c != 0 {
				return c
			}
			return cmp.Compare(f.links[a].target, f.links[b].target)
		})
	}
	out := make([]BurstStat, 0, len(f.stepKeys))
	for _, s := range f.stepKeys {
		a := f.steps[s]
		st := BurstStat{
			Step: s, Bytes: a.bytes, Files: a.files, Dirs: a.dirs,
			BBBytes: a.bbBytes, SpillBytes: a.spillBytes, MaxBBFill: a.maxFill,
			FaultWrites: a.faultWrites, Retries: a.retries,
		}
		var sum float64
		f.gen++
		f.nodeSeen = f.nodeSeen[:0]
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
				f.nodeTab = grow(f.nodeTab, node)
				t := &f.nodeTab[node]
				if t.gen != f.gen {
					*t = nodeTally{gen: f.gen}
					f.nodeSeen = append(f.nodeSeen, node)
				}
				t.bytes += rs.bytes
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
		if len(f.nodeSeen) > 0 {
			var nodes spread
			for _, node := range f.nodeSeen {
				nodes.add(f.nodeTab[node].bytes)
			}
			st.Nodes = nodes.n
			st.NodeSkew = nodes.imbalance()
		}
		if a.nlinks > 0 {
			st.Links = a.nlinks
			var linkSum float64
			for _, id := range f.linkOrder {
				if id < len(a.links) && a.links[id].used {
					st.MaxLinkSeconds = max(st.MaxLinkSeconds, a.links[id].seconds)
					linkSum += a.links[id].seconds
				}
			}
			st.MeanLinkSeconds = linkSum / float64(a.nlinks)
			if st.MeanLinkSeconds > 0 {
				st.LinkSkew = st.MaxLinkSeconds / st.MeanLinkSeconds
			}
		}
		out = append(out, st)
	}
	f.bursts, f.burstsAt = out, f.n
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
	var ranks, links spread
	for _, rr := range f.ranks {
		if rr.data {
			ranks.add(rr.bytes)
		}
		if rr.writer {
			c.Writers++
		}
	}
	c.Ranks = ranks.n
	nodeBytes := f.nodeBytes()
	c.NodesUsed = len(nodeBytes)
	c.TargetsUsed = len(f.TargetBytes())
	for _, b := range f.linkBytes {
		links.add(b)
	}
	c.LinksUsed = links.n
	c.NodeImbalance = bytesImbalance(nodeBytes)
	c.LinkImbalance = links.imbalance()
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

	c.RankImbalance = ranks.imbalance()
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
	for id, l := range f.links {
		if l.target >= 0 {
			out[l.target] += f.linkBytes[id]
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

// pathDigest is the 64-bit digest files counts paths by. It folds the
// path in eight bytes at a time, each word through a 64x64->128-bit
// multiply whose halves are xored (wyhash's mix), so a 60-byte path
// costs eight multiplies rather than FNV-1a's sixty serial ones.
func pathDigest(s string) uint64 {
	const seed, prime = 0xa0761d6478bd642f, 0xe7037ed1a0b428db
	mix := func(x uint64) uint64 {
		hi, lo := bits.Mul64(x, prime)
		return hi ^ lo
	}
	h := uint64(len(s)) ^ seed
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h ^ (uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56))
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	return mix(h ^ tail ^ seed)
}

// grow extends s with zero entries until index i exists.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// spread accumulates byte counts for their max/mean imbalance. Sums
// accumulate in int64 — exact and order-independent — so the result
// does not depend on the order counts are added in (float addition is
// not associative; see the maprangefloat analyzer).
type spread struct {
	n        int
	sum, max int64
}

func (s *spread) add(b int64) {
	s.n++
	s.sum += b
	if b > s.max {
		s.max = b
	}
}

// imbalance returns max/mean (0 when empty or all zero).
func (s spread) imbalance() float64 {
	if s.sum > 0 {
		return float64(s.max) / (float64(s.sum) / float64(s.n))
	}
	return 0
}

// bytesImbalance returns max/mean over a byte-count map (0 when empty).
func bytesImbalance[K comparable](m map[K]int64) float64 {
	var s spread
	for _, b := range m {
		s.add(b)
	}
	return s.imbalance()
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

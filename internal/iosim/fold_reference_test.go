package iosim

import (
	"math"
	"sort"
)

// refFold is the map-keyed CharacterizeFold as it stood before links got
// dense ids and steps a cached accumulator: every record looks its step
// and link up in struct-keyed maps, and Bursts sorts each step's links.
// TestFoldMatchesMapReference pins the dense fold to it.

type refFold struct {
	n int // records consumed (0 distinguishes the zero profile)
	c Characterization

	files     map[uint64]struct{}
	sizeCount map[int64]int // write-size multiset for exact percentiles
	links     map[burstLink]int64
	ranks     []refRankRun // by rank
	steps     map[int]*refStepAcc
	endMax    float64

	bursts   []BurstStat
	burstsAt int
}

// refRankRun is one rank's run-long totals.
type refRankRun struct {
	seen                bool    // carried at least one record
	node                int     // the rank's compute node (-1 without topology)
	data                bool    // wrote at least one data record
	bytes               int64   // data bytes
	gather, open, write float64 // data-record duration split
	writer              bool    // paid a file open
	busy                float64 // record seconds on its node, directory records included
}

// refStepAcc is one step's span and burst aggregates.
type refStepAcc struct {
	span                StepSpan
	bytes               int64
	files, dirs         int
	bbBytes, spillBytes int64
	maxFill             float64
	faultWrites         int
	retries             int
	ranks               []refRankStep         // by rank
	links               map[burstLink]float64 // data-record seconds per link
}

// refRankStep is one rank's share of one step.
type refRankStep struct {
	seen    bool // carried at least one record in the step
	bytes   int64
	seconds float64 // record seconds, directory records included
	stall   float64 // drain-stall seconds
	drain   float64 // last tiered write's drain tail (program order)
	fault   float64 // injected-fault seconds
}

func newRefFold() *refFold {
	f := &refFold{
		files:     map[uint64]struct{}{},
		sizeCount: map[int64]int{},
		links:     map[burstLink]int64{},
		steps:     map[int]*refStepAcc{},
	}
	f.c.MinWrite = math.MaxInt64
	return f
}
func (f *refFold) Consume(r WriteRecord) {
	f.n++
	end := r.Start + r.Duration
	if end > f.endMax {
		f.endMax = end
	}
	st := f.steps[r.Labels.Step]
	if st == nil {
		st = &refStepAcc{span: StepSpan{Start: r.Start, End: end}}
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
func (f *refFold) Bursts() []BurstStat {
	if f.bursts != nil && f.burstsAt == f.n {
		return f.bursts
	}
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
	f.bursts, f.burstsAt = out, f.n
	return out
}

// Profile finalizes the fold into the profile of everything consumed so
// far. It does not reset the fold.
func (f *refFold) Profile() Characterization {
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
func (f *refFold) DurationSplit() (gather, open, write float64) {
	for _, rr := range f.ranks {
		gather += rr.gather
		open += rr.open
		write += rr.write
	}
	return gather, open, write
}

// StepSpan returns step's simulated extent (the zero span for a step no
// record carried).
func (f *refFold) StepSpan(step int) StepSpan {
	if a := f.steps[step]; a != nil {
		return a.span
	}
	return StepSpan{}
}

// TargetBytes returns the data bytes per storage target, summed over
// the links that end at it (every record with a target is a data record
// on a node, so the links hold all of them).
func (f *refFold) TargetBytes() map[int]int64 {
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
func (f *refFold) Nodes() map[int]NodeLoad {
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
func (f *refFold) nodeBytes() map[int]int64 {
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
func (f *refFold) percentile(idx int) int64 {
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

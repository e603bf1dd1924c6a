// Package amr implements the block-structured adaptive mesh refinement
// machinery the paper's AMReX/Castro substrate provides: box arrays,
// distribution mappings (domain decomposition over MPI tasks), error
// tagging, Berger–Rigoutsos grid generation, distributed field containers
// (MultiFab), ghost-cell exchange and coarse-fine interpolation.
//
// The package is deliberately close to AMReX's vocabulary — BoxArray,
// DistributionMapping, MultiFab, FillPatch — because the paper's measured
// quantity (bytes per timestep, per level, per task — its Eq. 2) is a
// direct function of these objects' evolution.
package amr

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"amrproxyio/internal/grid"
)

// BoxArray is the set of boxes that tile a level's valid region.
//
// A BoxArray built through NewBoxArray (or any constructor that goes
// through it) carries a lazily-built spatial index and content fingerprint
// shared by all copies of the value. Boxes must not be mutated after the
// first Index/Fingerprint call; AMR code never does — regrids build new
// arrays — which is exactly the AMReX immutability contract.
type BoxArray struct {
	Boxes []grid.Box
	h     *baHolder
}

// baHolder caches the derived spatial metadata of one immutable box list.
type baHolder struct {
	idxOnce sync.Once
	idx     *grid.BoxIndex
	fpOnce  sync.Once
	fp      uint64
}

// NewBoxArray wraps a box list.
func NewBoxArray(boxes []grid.Box) BoxArray {
	return BoxArray{Boxes: boxes, h: &baHolder{}}
}

// Index returns the spatial index over the array's boxes, building it on
// first use. Zero-value BoxArrays (constructed without NewBoxArray, e.g.
// by a checkpoint loader filling Boxes directly) get a fresh uncached
// index per call, which is correct but slower — hot paths always hold
// arrays with a cache slot.
func (ba BoxArray) Index() *grid.BoxIndex {
	if ba.h == nil {
		return grid.NewBoxIndex(ba.Boxes)
	}
	ba.h.idxOnce.Do(func() { ba.h.idx = grid.NewBoxIndex(ba.Boxes) })
	return ba.h.idx
}

// Fingerprint returns the content hash identifying this exact box list.
// Communication plans are keyed on fingerprints, so plans cached for one
// grid generation can never be replayed against another (regrids produce
// different boxes, hence different fingerprints).
func (ba BoxArray) Fingerprint() uint64 {
	if ba.h == nil {
		return grid.FingerprintBoxes(ba.Boxes)
	}
	ba.h.fpOnce.Do(func() { ba.h.fp = grid.FingerprintBoxes(ba.Boxes) })
	return ba.h.fp
}

// SingleBoxArray covers dom with one box, then splits it to respect
// maxGridSize with blockingFactor alignment — exactly how AMReX builds the
// level-0 grid set from amr.n_cell and amr.max_grid_size.
func SingleBoxArray(dom grid.Box, maxGridSize, blockingFactor int) BoxArray {
	return NewBoxArray(dom.SplitMax(maxGridSize, blockingFactor))
}

// Len returns the number of boxes.
func (ba BoxArray) Len() int { return len(ba.Boxes) }

// NumPts is the total cell count over all boxes.
func (ba BoxArray) NumPts() int64 {
	var n int64
	for _, b := range ba.Boxes {
		n += b.NumPts()
	}
	return n
}

// Owner returns the lowest index of a box covering cell p, or -1.
func (ba BoxArray) Owner(p grid.IntVect) int {
	return ba.Index().Owner(p)
}

// ContainsBox reports whether box o is entirely covered by the union of
// the array's boxes. Only boxes actually intersecting o are subtracted.
func (ba BoxArray) ContainsBox(o grid.Box) bool {
	if o.IsEmpty() {
		return true
	}
	remaining := []grid.Box{o}
	for _, i := range ba.Index().Intersecting(o, nil) {
		var next []grid.Box
		for _, r := range remaining {
			next = append(next, r.Difference(ba.Boxes[i])...)
		}
		remaining = next
		if len(remaining) == 0 {
			return true
		}
	}
	return len(remaining) == 0
}

// Intersections returns the indices and overlap boxes of all array boxes
// intersecting b, in ascending index order.
func (ba BoxArray) Intersections(b grid.Box) []Intersection {
	var out []Intersection
	for _, i := range ba.Index().Intersecting(b, nil) {
		out = append(out, Intersection{Index: i, Box: ba.Boxes[i].Intersect(b)})
	}
	return out
}

// Intersection pairs a box index with the overlap region.
type Intersection struct {
	Index int
	Box   grid.Box
}

// Refine maps every box to the finer index space.
func (ba BoxArray) Refine(ratio int) BoxArray {
	out := make([]grid.Box, len(ba.Boxes))
	for i, b := range ba.Boxes {
		out[i] = b.Refine(ratio)
	}
	return NewBoxArray(out)
}

// Coarsen maps every box to the coarser index space.
func (ba BoxArray) Coarsen(ratio int) BoxArray {
	out := make([]grid.Box, len(ba.Boxes))
	for i, b := range ba.Boxes {
		out[i] = b.Coarsen(ratio)
	}
	return NewBoxArray(out)
}

// Complement returns the parts of region not covered by the array.
func (ba BoxArray) Complement(region grid.Box) []grid.Box {
	if region.IsEmpty() {
		return nil
	}
	remaining := []grid.Box{region}
	for _, i := range ba.Index().Intersecting(region, nil) {
		var next []grid.Box
		for _, r := range remaining {
			next = append(next, r.Difference(ba.Boxes[i])...)
		}
		remaining = next
		if len(remaining) == 0 {
			break
		}
	}
	return remaining
}

// IsDisjoint verifies no two boxes overlap (an AMReX BoxArray invariant
// for valid regions). With the spatial index this is O(N) queries rather
// than the former O(N^2) pair scan.
func (ba BoxArray) IsDisjoint() bool {
	idx := ba.Index()
	var scratch []int
	for i, b := range ba.Boxes {
		if b.IsEmpty() {
			continue
		}
		scratch = idx.Intersecting(b, scratch[:0])
		for _, j := range scratch {
			if j != i {
				return false
			}
		}
	}
	return true
}

func (ba BoxArray) String() string {
	return fmt.Sprintf("BoxArray{%d boxes, %d cells}", ba.Len(), ba.NumPts())
}

// DistributionMapping assigns each box of a BoxArray to an owning rank.
type DistributionMapping struct {
	Owner []int
}

// DistStrategy selects the decomposition algorithm.
type DistStrategy int

const (
	// DistRoundRobin assigns box i to rank i % nprocs (AMReX's simplest).
	DistRoundRobin DistStrategy = iota
	// DistKnapsack balances total cells per rank greedily (largest box to
	// least-loaded rank), AMReX's default-ish heuristic.
	DistKnapsack
	// DistSFC orders boxes along a Morton space-filling curve and chops
	// the curve into nprocs contiguous chunks of roughly equal cells.
	DistSFC
)

func (s DistStrategy) String() string {
	switch s {
	case DistRoundRobin:
		return "roundrobin"
	case DistKnapsack:
		return "knapsack"
	case DistSFC:
		return "sfc"
	default:
		return fmt.Sprintf("DistStrategy(%d)", int(s))
	}
}

// DistStrategies lists every decomposition algorithm, in declaration
// order — the sweep set for distribution-mapping experiments.
func DistStrategies() []DistStrategy {
	return []DistStrategy{DistRoundRobin, DistKnapsack, DistSFC}
}

// ParseDistStrategy resolves a strategy name (the String() forms:
// "roundrobin", "knapsack", "sfc"). Unknown names are an error, mirroring
// the campaign's unknown-engine handling.
func ParseDistStrategy(name string) (DistStrategy, error) {
	for _, s := range DistStrategies() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("amr: unknown distribution strategy %q", name)
}

// Distribute builds a DistributionMapping for ba over nprocs ranks. An
// unrecognized strategy is an error (unknown experiment configurations
// must not silently fall back to a default mapping).
func Distribute(ba BoxArray, nprocs int, strategy DistStrategy) (DistributionMapping, error) {
	n := ba.Len()
	owner := make([]int, n)
	if nprocs < 1 {
		nprocs = 1
	}
	switch strategy {
	case DistRoundRobin:
		for i := range owner {
			owner[i] = i % nprocs
		}
	case DistKnapsack:
		type item struct {
			idx int
			pts int64
		}
		items := make([]item, n)
		for i, b := range ba.Boxes {
			items[i] = item{idx: i, pts: b.NumPts()}
		}
		slices.SortFunc(items, func(a, b item) int {
			if c := cmp.Compare(b.pts, a.pts); c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx) // deterministic tie-break
		})
		// Least-loaded rank; ties go to the rank with fewer boxes (then
		// the lower index), so degenerate zero-cell boxes still spread
		// instead of piling onto one rank and every rank owns a box
		// whenever there are enough boxes.
		ranks := newLeastLoaded(nprocs, nil)
		for _, it := range items {
			owner[it.idx] = ranks.place(it.pts)
		}
	case DistSFC:
		type item struct {
			idx  int
			code uint64
			pts  int64
		}
		items := make([]item, n)
		var total int64
		for i, b := range ba.Boxes {
			c := b.Lo.Add(b.Hi) // 2*center; monotone in center
			items[i] = item{idx: i, code: grid.Morton(c.X, c.Y), pts: b.NumPts()}
			total += b.NumPts()
		}
		slices.SortFunc(items, func(a, b item) int {
			if c := cmp.Compare(a.code, b.code); c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
		// Zero-cell degeneracy: with total == 0 every load cut fires at
		// once (perRank is 0), so weight boxes equally instead and the
		// curve still chops into balanced contiguous chunks.
		weight := func(pts int64) int64 { return pts }
		if total == 0 {
			weight = func(int64) int64 { return 1 }
			total = int64(n)
		}
		perRank := float64(total) / float64(nprocs)
		var acc int64
		rank, placed := 0, 0
		for k, it := range items {
			// Advance the cut when the accumulated load passes this
			// rank's share — but never before the rank owns a box, and
			// always when the remaining boxes are only just enough to
			// give every remaining rank one (so n >= nprocs implies every
			// rank ends up with at least one box).
			if rank < nprocs-1 && placed > 0 {
				if n-k <= nprocs-1-rank || float64(acc) >= perRank*float64(rank+1) {
					rank++
					placed = 0
				}
			}
			owner[it.idx] = rank
			placed++
			acc += weight(it.pts)
		}
	default:
		return DistributionMapping{}, fmt.Errorf("amr: unknown distribution strategy %d", strategy)
	}
	return DistributionMapping{Owner: owner}, nil
}

// MustDistribute is Distribute for callers whose strategy is statically
// known-valid (tests, benchmarks, examples); it panics on error.
func MustDistribute(ba BoxArray, nprocs int, strategy DistStrategy) DistributionMapping {
	dm, err := Distribute(ba, nprocs, strategy)
	if err != nil {
		panic(err)
	}
	return dm
}

// RankBoxes returns the box indices owned by rank.
func (dm DistributionMapping) RankBoxes(rank int) []int {
	var out []int
	for i, o := range dm.Owner {
		if o == rank {
			out = append(out, i)
		}
	}
	return out
}

// LoadPerRank returns total cells owned by each of nprocs ranks.
func (dm DistributionMapping) LoadPerRank(ba BoxArray, nprocs int) []int64 {
	load := make([]int64, nprocs)
	for i, o := range dm.Owner {
		load[o] += ba.Boxes[i].NumPts()
	}
	return load
}

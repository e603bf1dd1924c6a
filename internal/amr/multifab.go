package amr

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"amrproxyio/internal/grid"
)

// MultiFab is a distributed collection of FABs: one per box of a BoxArray,
// each tagged with an owning rank through the DistributionMapping. Field
// data lives in-process (the simulated ranks share an address space), but
// all I/O and decomposition logic respects ownership, which is what
// reproduces the paper's per-task output pattern.
type MultiFab struct {
	BA     BoxArray
	DM     DistributionMapping
	NComp  int
	NGhost int
	FABs   []*FAB

	// dataIdx is the lazily-built spatial index over the FABs' data boxes
	// (valid grown by NGhost); the valid-region index lives on BA itself.
	dataIdxOnce sync.Once
	dataIdx     *grid.BoxIndex

	// The communication plans this MultiFab's calls replay, each built on
	// first use (plan.go): the ghost exchange, FillPatch's coarse regions
	// for the last domain, and AverageDown's restriction onto the last
	// coarse partner and ratio, this MultiFab being the fine side.
	exchangeOnce sync.Once
	exchange     *copyPlan
	patch        atomic.Pointer[keyedPlan[grid.Box, *regionPlan]]
	restrict     atomic.Pointer[keyedPlan[restrictKey, *copyPlan]]
}

// NewMultiFab allocates one FAB per box.
func NewMultiFab(ba BoxArray, dm DistributionMapping, ncomp, nghost int) *MultiFab {
	if len(dm.Owner) != ba.Len() {
		panic(fmt.Sprintf("amr: distribution mapping has %d owners for %d boxes", len(dm.Owner), ba.Len()))
	}
	if ba.h == nil {
		// Arrays assembled without NewBoxArray (checkpoint loads) get a
		// cache slot here so every downstream query is indexed.
		ba = NewBoxArray(ba.Boxes)
	}
	mf := &MultiFab{BA: ba, DM: dm, NComp: ncomp, NGhost: nghost}
	mf.FABs = make([]*FAB, ba.Len())
	for i, b := range ba.Boxes {
		mf.FABs[i] = NewFAB(b, ncomp, nghost)
	}
	return mf
}

// dataBoxIndex returns the index over grown (valid+ghost) boxes, built on
// first use. The box set of a MultiFab is immutable after construction.
func (mf *MultiFab) dataBoxIndex() *grid.BoxIndex {
	mf.dataIdxOnce.Do(func() {
		boxes := make([]grid.Box, len(mf.FABs))
		for i, f := range mf.FABs {
			boxes[i] = f.DataBox
		}
		mf.dataIdx = grid.NewBoxIndex(boxes)
	})
	return mf.dataIdx
}

// ForEachFAB runs fn over every FAB in parallel using ForEach's worker
// pool. fn receives the box index and the FAB. This is the
// compute-parallelism analogue of AMReX's MFIter loop over one level; a
// pass over a whole hierarchy whose levels are independent calls ForEach
// once on a flat list of every level's FABs instead, so fine levels with
// few FABs leave no worker idle at a per-level barrier.
func (mf *MultiFab) ForEachFAB(fn func(idx int, fab *FAB)) {
	ForEach(mf.FABs, fn)
}

// ForEach runs fn over every item in parallel on GOMAXPROCS workers, the
// caller among them, and returns when all are done. Workers claim item
// indices from a shared atomic counter: no per-item channel handoff, so
// a loop over many small items does not stall on goroutine wakeups when
// other processes hold the CPUs. fn must touch only state of its own
// item; any reduction over the items belongs after ForEach, serial and
// in index order, so its result does not depend on the worker count.
func ForEach[T any](items []T, fn func(i int, item T)) {
	n := len(items)
	if n == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, it := range items {
			fn(i, it)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i, items[i])
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// FillBoundary copies valid data into the ghost cells of neighboring FABs
// on the same level. Ghost regions not covered by any valid box (physical
// boundaries or coarse-fine boundaries) are left untouched; FillPatch and
// the physical BC fill handle those. The copy schedule is built on the
// first call and kept on mf, so every later call is a pure replay with no
// neighbor search at all.
func (mf *MultiFab) FillBoundary() {
	plan := mf.exchangePlan()
	mf.ForEachFAB(func(di int, dst *FAB) {
		for _, p := range plan.byDst[di] {
			dst.CopyFrom(mf.FABs[p.srcIdx], p.region)
		}
	})
}

// MinMax reduces both extrema of a component over all valid regions with
// one parallel pass. Panics on an empty MultiFab: there is no identity
// element a caller could sensibly receive.
func (mf *MultiFab) MinMax(comp int) (mn, mx float64) {
	if len(mf.FABs) == 0 {
		panic("amr: MinMax on MultiFab with no FABs")
	}
	partial := make([][2]float64, len(mf.FABs))
	mf.ForEachFAB(func(i int, f *FAB) {
		partial[i][0], partial[i][1] = f.MinMax(comp)
	})
	mn, mx = partial[0][0], partial[0][1]
	for _, p := range partial[1:] {
		if p[0] < mn {
			mn = p[0]
		}
		if p[1] > mx {
			mx = p[1]
		}
	}
	return mn, mx
}

// Min reduces the minimum of a component over all valid regions.
func (mf *MultiFab) Min(comp int) float64 {
	mn, _ := mf.MinMax(comp)
	return mn
}

// Max reduces the maximum of a component over all valid regions.
func (mf *MultiFab) Max(comp int) float64 {
	_, mx := mf.MinMax(comp)
	return mx
}

// Sum reduces the sum of a component over all valid regions. Per-FAB sums
// run in parallel; the combine is serial in box order, so the result is
// deterministic run to run.
func (mf *MultiFab) Sum(comp int) float64 {
	partial := make([]float64, len(mf.FABs))
	mf.ForEachFAB(func(i int, f *FAB) { partial[i] = f.Sum(comp) })
	var s float64
	for _, v := range partial {
		s += v
	}
	return s
}

// ValueAt returns component comp at cell p, via the spatial index over the
// valid region. ok is false if p is not covered by the valid region.
func (mf *MultiFab) ValueAt(p grid.IntVect, comp int) (v float64, ok bool) {
	if i := mf.BA.Owner(p); i >= 0 {
		return mf.FABs[i].At(p.X, p.Y, comp), true
	}
	return 0, false
}

// CopyInto copies the overlapping valid data of src (same index space)
// into dst's valid+ghost regions. Used when swapping hierarchies after a
// regrid, so the overlap schedule is built for the call and not kept.
func (mf *MultiFab) CopyInto(dst *MultiFab) {
	if mf.NComp != dst.NComp {
		panic("amr: CopyInto component mismatch")
	}
	plan := copyIntoPlan(mf.BA, dst.BA, dst.NGhost)
	dst.ForEachFAB(func(di int, df *FAB) {
		for _, p := range plan.byDst[di] {
			df.CopyFrom(mf.FABs[p.srcIdx], p.region)
		}
	})
}

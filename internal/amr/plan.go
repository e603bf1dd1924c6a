package amr

import (
	"sync/atomic"

	"amrproxyio/internal/grid"
)

// Communication plans: the (srcIdx, dstIdx, region) copy lists behind
// FillBoundary, CopyInto, AverageDown and FillPatch's coarse-region
// computation are pure functions of the participating BoxArrays plus a few
// integer parameters. Each plan is kept on the MultiFab whose calls replay
// it, built on first use and rebuilt only when a partner or parameter
// changes; a regrid builds new MultiFabs, so a plan dies with the grid it
// was computed for. This is AMReX's FB/copy comm-metadata caching, which
// makes its FillBoundary O(N) instead of O(N^2), without a process-wide
// table: the model shares no state across cases.

// copyPair is one region copy: FABs[dstIdx] receives src data over region.
type copyPair struct {
	srcIdx, dstIdx int
	region         grid.Box
}

// copyPlan is a reusable copy schedule. pairs is sorted by (srcIdx,
// dstIdx) while byDst groups the same pairs per destination FAB in ascending
// source order, the layout the shared-memory consumers replay in parallel.
type copyPlan struct {
	pairs []copyPair
	byDst [][]copyPair
}

// regionPlan holds, per destination FAB, the regions needing coarse
// interpolation during FillPatch (data box minus all same-level valid
// boxes, clipped to the domain).
type regionPlan struct {
	byDst [][]grid.Box
}

// keyedPlan is a plan with the parameters it was built for.
type keyedPlan[K comparable, P any] struct {
	key  K
	plan P
}

// planFor returns slot's plan if it was built for key, and otherwise
// builds one and keeps it in slot.
func planFor[K comparable, P any](slot *atomic.Pointer[keyedPlan[K, P]], key K, build func() P) P {
	if kp := slot.Load(); kp != nil && kp.key == key {
		return kp.plan
	}
	p := build()
	slot.Store(&keyedPlan[K, P]{key: key, plan: p})
	return p
}

// restrictKey identifies the coarse partner and ratio an AverageDown
// plan was built for. Holding crse keeps it reachable while the fine
// MultiFab lives; a regrid that replaces the coarse level replaces every
// finer one too.
type restrictKey struct {
	crse  *MultiFab
	ratio int
}

// exchangePlan returns mf's ghost-exchange plan, built on first use: a
// MultiFab's BA and NGhost never change.
func (mf *MultiFab) exchangePlan() *copyPlan {
	mf.exchangeOnce.Do(func() { mf.exchange = fillBoundaryPlan(mf.BA, mf.NGhost) })
	return mf.exchange
}

// patchPlan returns mf's FillPatch coarse regions within domain, rebuilt
// only when domain differs from the last call's.
func (mf *MultiFab) patchPlan(domain grid.Box) *regionPlan {
	return planFor(&mf.patch, domain, func() *regionPlan {
		return fillPatchCoarsePlan(mf.BA, mf.NGhost, domain)
	})
}

// restrictPlan returns the plan averaging mf (the fine level) down onto
// crse, rebuilt only when crse or ratio differs from the last call's.
func (mf *MultiFab) restrictPlan(crse *MultiFab, ratio int) *copyPlan {
	return planFor(&mf.restrict, restrictKey{crse, ratio}, func() *copyPlan {
		return averageDownPlan(crse.BA, mf.BA, ratio)
	})
}

// finishCopyPlan builds the per-destination view of pairs. The builders
// append in src-major, ascending-dst order — already sorted by (srcIdx,
// dstIdx), since each src/dst box pair overlaps in at most one
// rectangle — so grouping
// preserves ascending srcIdx within each destination and no sort is
// needed. The groups are a counting sort into one backing array, each
// capped at its own length, rather than one growing slice per FAB.
func finishCopyPlan(pairs []copyPair, nDst int) *copyPlan {
	start := make([]int, nDst+1)
	for _, p := range pairs {
		start[p.dstIdx+1]++
	}
	for d := 0; d < nDst; d++ {
		start[d+1] += start[d]
	}
	grouped := make([]copyPair, len(pairs))
	fill := append([]int(nil), start[:nDst]...)
	for _, p := range pairs {
		grouped[fill[p.dstIdx]] = p
		fill[p.dstIdx]++
	}
	byDst := make([][]copyPair, nDst)
	for d := range byDst {
		if start[d] < start[d+1] {
			byDst[d] = grouped[start[d]:start[d+1]:start[d+1]]
		}
	}
	return &copyPlan{pairs: pairs, byDst: byDst}
}

// fillBoundaryPlan builds the same-level ghost-exchange plan for a
// MultiFab shape: every (src valid, dst ghost) overlap of ba grown by
// nghost, found with O(N) index queries. It iterates sources and queries each source box grown by nghost, using the
// dilation identity dst.Grow(g) ∩ src ≠ ∅ ⟺ src.Grow(g) ∩ dst ≠ ∅, so
// pairs emerge in (srcIdx, dstIdx) order with no post-sort.
func fillBoundaryPlan(ba BoxArray, nghost int) *copyPlan {
	idx := ba.Index()
	// A box of a 2-D tiling borders at most eight same-size neighbors;
	// sizing for that skips the regrowth of the pair list, and a wider
	// fan-out still appends past it.
	pairs := make([]copyPair, 0, 8*ba.Len())
	var scratch []int
	for si, b := range ba.Boxes {
		sg := b.Grow(nghost)
		scratch = idx.Intersecting(sg, scratch[:0])
		for _, di := range scratch {
			if di == si {
				continue
			}
			pairs = append(pairs, copyPair{
				srcIdx: si,
				dstIdx: di,
				region: ba.Boxes[di].Grow(nghost).Intersect(b),
			})
		}
	}
	return finishCopyPlan(pairs, ba.Len())
}

// copyIntoPlan builds the plan for MultiFab.CopyInto: every overlap of a
// src valid box with a dst data box (dst valid grown by dstNGhost).
func copyIntoPlan(src, dst BoxArray, dstNGhost int) *copyPlan {
	idx := dst.Index()
	var pairs []copyPair
	var scratch []int
	for si, b := range src.Boxes {
		sg := b.Grow(dstNGhost)
		scratch = idx.Intersecting(sg, scratch[:0])
		for _, di := range scratch {
			pairs = append(pairs, copyPair{
				srcIdx: si,
				dstIdx: di,
				region: dst.Boxes[di].Grow(dstNGhost).Intersect(b),
			})
		}
	}
	return finishCopyPlan(pairs, dst.Len())
}

// averageDownPlan builds the restriction plan: for every fine box, the
// coarse boxes its coarsened image overlaps, with regions in coarse index
// space. byDst lists each coarse FAB's sources in ascending fine index —
// the replay order that keeps results byte-identical to the historical
// all-pairs loop even if coarsened fine boxes overlap at unaligned seams.
func averageDownPlan(crse, fine BoxArray, ratio int) *copyPlan {
	idx := crse.Index()
	var pairs []copyPair
	var scratch []int
	for fi, fb := range fine.Boxes {
		cb := fb.Coarsen(ratio)
		scratch = idx.Intersecting(cb, scratch[:0])
		for _, ci := range scratch {
			pairs = append(pairs, copyPair{
				srcIdx: fi,
				dstIdx: ci,
				region: crse.Boxes[ci].Intersect(cb),
			})
		}
	}
	return finishCopyPlan(pairs, crse.Len())
}

// fillPatchCoarsePlan builds, per fine FAB, the regions of its data box
// (clipped to domain) not covered by any same-level valid box — the cells
// FillPatch must interpolate from the coarse level — by a box-calculus
// subtraction restricted, via the index, to the valid boxes that actually
// intersect each data box.
func fillPatchCoarsePlan(fine BoxArray, nghost int, domain grid.Box) *regionPlan {
	idx := fine.Index()
	byDst := make([][]grid.Box, fine.Len())
	var scratch []int
	for di, b := range fine.Boxes {
		needed := []grid.Box{b.Grow(nghost).Intersect(domain)}
		scratch = idx.Intersecting(needed[0], scratch[:0])
		for _, vi := range scratch {
			var next []grid.Box
			for _, r := range needed {
				next = append(next, r.Difference(fine.Boxes[vi])...)
			}
			needed = next
			if len(needed) == 0 {
				break
			}
		}
		byDst[di] = needed
	}
	return &regionPlan{byDst: byDst}
}

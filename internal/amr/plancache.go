package amr

import (
	"sync"

	"amrproxyio/internal/grid"
)

// Communication-plan cache: the (srcIdx, dstIdx, region) copy lists behind
// FillBoundary, CopyInto, AverageDown and FillPatch's coarse-region
// computation are pure functions of the participating BoxArrays plus a few
// integer parameters, so they are computed once per grid generation and
// replayed every timestep. Keys embed the arrays' content fingerprints:
// a regrid produces new boxes, hence new fingerprints, hence fresh plans —
// stale metadata cannot outlive the grids it was computed for. This is the
// same architecture as AMReX's FB/copy comm-metadata cache (CPC/FB caches)
// that makes its FillBoundary O(N) instead of O(N^2).

type planOp uint8

const (
	opFillBoundary planOp = iota
	opCopyInto
	opAverageDown
	opFillPatchCoarse
	opPairTraffic
)

// planKey identifies one cached plan. aFP/bFP are BoxArray fingerprints;
// p1/p2 carry the scalar parameters (ghost width, refinement ratio, or a
// hashed domain box).
type planKey struct {
	op       planOp
	aFP, bFP uint64
	p1, p2   uint64
}

// copyPair is one region copy: FABs[dstIdx] receives src data over region.
type copyPair struct {
	srcIdx, dstIdx int
	region         grid.Box
}

// copyPlan is a reusable copy schedule. pairs is sorted by (srcIdx,
// dstIdx) — the deterministic wire order of the distributed exchange —
// while byDst groups the same pairs per destination FAB in ascending
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

var (
	planMu    sync.Mutex
	planCache = map[planKey]interface{}{}
	planHits  uint64
	planMiss  uint64
)

// planCacheLimit bounds the cache; regrid-heavy campaigns cycle through
// grid generations, and plans for dead generations are unreachable (their
// fingerprints never recur), so a full flush is cheap and simple.
const planCacheLimit = 256

// lookupPlan returns the cached plan for key, computing and storing it on
// miss. compute must be deterministic in key.
func lookupPlan(key planKey, compute func() interface{}) interface{} {
	planMu.Lock()
	if p, ok := planCache[key]; ok {
		planHits++
		planMu.Unlock()
		return p
	}
	planMiss++
	planMu.Unlock()
	// Compute outside the lock: plans for distinct keys build concurrently.
	p := compute()
	planMu.Lock()
	if len(planCache) >= planCacheLimit {
		planCache = map[planKey]interface{}{}
	}
	planCache[key] = p
	planMu.Unlock()
	return p
}

// PlanCacheStats reports cumulative plan-cache hits and misses (for tests
// and instrumentation).
func PlanCacheStats() (hits, misses uint64) {
	planMu.Lock()
	defer planMu.Unlock()
	return planHits, planMiss
}

// finishCopyPlan builds the per-destination view of pairs. The builders
// append in src-major, ascending-dst order — already the deterministic
// (srcIdx, dstIdx) wire order of the distributed exchange, since each
// src/dst box pair overlaps in at most one rectangle — so grouping
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

// fillBoundaryPlan returns the same-level ghost-exchange plan for a
// MultiFab shape: every (src valid, dst ghost) overlap of ba grown by
// nghost.
func fillBoundaryPlan(ba BoxArray, nghost int) *copyPlan {
	key := planKey{op: opFillBoundary, aFP: ba.Fingerprint(), bFP: 0, p1: uint64(nghost)}
	return lookupPlan(key, func() interface{} {
		return computeFillBoundaryPlan(ba, nghost)
	}).(*copyPlan)
}

// computeFillBoundaryPlan is the uncached O(N)-queries construction. It
// iterates sources and queries each source box grown by nghost, using the
// dilation identity dst.Grow(g) ∩ src ≠ ∅ ⟺ src.Grow(g) ∩ dst ≠ ∅, so
// pairs emerge in (srcIdx, dstIdx) order with no post-sort.
func computeFillBoundaryPlan(ba BoxArray, nghost int) *copyPlan {
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

// copyIntoPlan returns the plan for MultiFab.CopyInto: every overlap of a
// src valid box with a dst data box (dst valid grown by dstNGhost).
func copyIntoPlan(src, dst BoxArray, dstNGhost int) *copyPlan {
	key := planKey{op: opCopyInto, aFP: src.Fingerprint(), bFP: dst.Fingerprint(), p1: uint64(dstNGhost)}
	return lookupPlan(key, func() interface{} {
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
	}).(*copyPlan)
}

// averageDownPlan returns the restriction plan: for every fine box, the
// coarse boxes its coarsened image overlaps, with regions in coarse index
// space. byDst lists each coarse FAB's sources in ascending fine index —
// the replay order that keeps results byte-identical to the historical
// all-pairs loop even if coarsened fine boxes overlap at unaligned seams.
func averageDownPlan(crse, fine BoxArray, ratio int) *copyPlan {
	key := planKey{op: opAverageDown, aFP: fine.Fingerprint(), bFP: crse.Fingerprint(), p1: uint64(ratio)}
	return lookupPlan(key, func() interface{} {
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
	}).(*copyPlan)
}

// fillPatchCoarsePlan returns, per fine FAB, the regions of its data box
// (clipped to domain) not covered by any same-level valid box — the cells
// FillPatch must interpolate from the coarse level.
func fillPatchCoarsePlan(fine BoxArray, nghost int, domain grid.Box) *regionPlan {
	key := planKey{
		op:  opFillPatchCoarse,
		aFP: fine.Fingerprint(),
		bFP: grid.FingerprintBoxes([]grid.Box{domain}),
		p1:  uint64(nghost),
	}
	return lookupPlan(key, func() interface{} {
		return computeFillPatchCoarsePlan(fine, nghost, domain)
	}).(*regionPlan)
}

// computeFillPatchCoarsePlan is the uncached construction: a box-calculus
// subtraction restricted, via the index, to the valid boxes that actually
// intersect each data box.
func computeFillPatchCoarsePlan(fine BoxArray, nghost int, domain grid.Box) *regionPlan {
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

package amr

import (
	"math"

	"amrproxyio/internal/grid"
)

// Error estimation: which cells of a level need refinement. Castro's Sedov
// setup tags on density and pressure gradients; we implement the standard
// relative undivided-gradient criterion.

// TagGradient tags every valid cell where the undivided gradient of any
// of the components comps, relative to the local magnitude, exceeds
// relThreshold, into one TagSet. The MultiFab's ghost cells must be
// filled (FillPatch) so stencils at box edges see neighbor data. The
// FABs are scanned in parallel, each into its own list; the lists are
// then added in box order, the same Add sequence a serial scan makes.
func TagGradient(mf *MultiFab, comps []int, relThreshold float64) *TagSet {
	perFAB := make([][]grid.IntVect, len(mf.FABs))
	mf.ForEachFAB(func(idx int, f *FAB) {
		var pts []grid.IntVect
		for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
			for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
				for _, comp := range comps {
					if steepGradient(f, i, j, comp, relThreshold) {
						pts = append(pts, grid.IntVect{X: i, Y: j})
						break
					}
				}
			}
		}
		perFAB[idx] = pts
	})
	tags := NewTagSet()
	for _, pts := range perFAB {
		for _, p := range pts {
			tags.Add(p)
		}
	}
	return tags
}

// steepGradient reports whether the largest one-sided undivided
// difference of comp at (i,j), relative to |value| (floored at 1e-12),
// exceeds relThreshold.
func steepGradient(f *FAB, i, j, comp int, relThreshold float64) bool {
	v := f.At(i, j, comp)
	g := math.Abs(f.At(i+1, j, comp) - v)
	if d := math.Abs(v - f.At(i-1, j, comp)); d > g {
		g = d
	}
	if d := math.Abs(f.At(i, j+1, comp) - v); d > g {
		g = d
	}
	if d := math.Abs(v - f.At(i, j-1, comp)); d > g {
		g = d
	}
	den := math.Abs(v)
	if den < 1e-12 {
		den = 1e-12
	}
	return g/den > relThreshold
}

// EnforceNesting clips a candidate fine-level BoxArray (in level-(l+1)
// index space) to lie inside the parent level's region (parent is in
// level-l index space). AMReX calls this proper nesting: a fine level may
// only exist where its parent level exists.
func EnforceNesting(fine BoxArray, parent BoxArray, ratio int) BoxArray {
	refined := parent.Refine(ratio)
	var out []grid.Box
	for _, fb := range fine.Boxes {
		for _, isect := range refined.Intersections(fb) {
			out = append(out, isect.Box)
		}
	}
	return NewBoxArray(out)
}

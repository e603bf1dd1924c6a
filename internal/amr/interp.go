package amr

import (
	"math"

	"amrproxyio/internal/grid"
)

// Coarse-fine data motion: prolongation (interpolation to a finer level)
// and restriction (averaging down to a coarser level). Both operate on
// cell-centered data with the AMReX index convention: fine cell (i,j)
// coarsens to (floor(i/r), floor(j/r)).

// InterpKind selects the prolongation stencil.
type InterpKind int

const (
	// InterpPiecewiseConstant injects the coarse value into every covered
	// fine cell. Exactly conservative.
	InterpPiecewiseConstant InterpKind = iota
	// InterpCellConsLinear adds minmod-limited central slopes; it remains
	// conservative for even ratios because fine-cell offsets are symmetric
	// about the coarse center. This is AMReX's default for state data.
	InterpCellConsLinear
)

// coarseLookup is the view of coarse data an interpolator needs. It
// returns the value of comp at coarse cell (i,j), clamping to the nearest
// available cell so lookups just outside the coarse valid union still work
// (e.g. against the physical boundary, where outflow BCs make the clamped
// value correct).
type coarseLookup func(i, j, comp int) float64

// interpCell computes one fine-cell value from the coarse field.
func interpCell(kind InterpKind, look coarseLookup, fi, fj, comp, ratio int) float64 {
	ci, cj := floorDiv(fi, ratio), floorDiv(fj, ratio)
	v := look(ci, cj, comp)
	if kind == InterpPiecewiseConstant {
		return v
	}
	// Limited central slopes in each direction.
	sx := minmod(look(ci+1, cj, comp)-v, v-look(ci-1, cj, comp))
	sy := minmod(look(ci, cj+1, comp)-v, v-look(ci, cj-1, comp))
	// Offset of the fine cell center from the coarse cell center, in
	// coarse-cell units: (local + 0.5)/ratio - 0.5.
	ox := (float64(fi-ci*ratio)+0.5)/float64(ratio) - 0.5
	oy := (float64(fj-cj*ratio)+0.5)/float64(ratio) - 0.5
	return v + sx*ox + sy*oy
}

func minmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// InterpRegion fills region (in fine index space) of the fine FAB from the
// coarse MultiFab. The coarse MultiFab should have its ghost cells filled
// (FillBoundary + physical BCs) so slope stencils are valid near box
// edges.
func InterpRegion(fine *FAB, crse *MultiFab, region grid.Box, ratio int, kind InterpKind) {
	look := makeClampedLookup(crse)
	for c := 0; c < fine.NComp; c++ {
		for j := region.Lo.Y; j <= region.Hi.Y; j++ {
			for i := region.Lo.X; i <= region.Hi.X; i++ {
				fine.Set(i, j, c, interpCell(kind, look, i, j, c, ratio))
			}
		}
	}
}

// makeClampedLookup builds a coarseLookup over the MultiFab's valid+ghost
// data, preferring valid data, then ghost data, then clamping to the
// nearest covered cell. The valid and ghost probes go through the spatial
// indexes (both cached on the MultiFab), so a lookup is O(1); only the
// rare clamp fallback — a point outside every data box, i.e. beyond the
// physical boundary's ghost ring — scans the box list.
func makeClampedLookup(mf *MultiFab) coarseLookup {
	validIdx := mf.BA.Index()
	dataIdx := mf.dataBoxIndex()
	return func(i, j, comp int) float64 {
		p := grid.IntVect{X: i, Y: j}
		// Prefer a FAB whose valid box holds p.
		if fi := validIdx.Owner(p); fi >= 0 {
			return mf.FABs[fi].At(i, j, comp)
		}
		// Then ghost data.
		if fi := dataIdx.Owner(p); fi >= 0 {
			return mf.FABs[fi].At(i, j, comp)
		}
		// Clamp to the nearest valid cell of the nearest box.
		best := math.MaxInt64
		var bi, bj int
		var bf *FAB
		for _, f := range mf.FABs {
			ci := clamp(i, f.ValidBox.Lo.X, f.ValidBox.Hi.X)
			cj := clamp(j, f.ValidBox.Lo.Y, f.ValidBox.Hi.Y)
			d := (ci-i)*(ci-i) + (cj-j)*(cj-j)
			if d < best {
				best, bi, bj, bf = d, ci, cj, f
			}
		}
		if bf == nil {
			return 0
		}
		return bf.At(bi, bj, comp)
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AverageDown restricts fine data onto the overlapping region of the
// coarse MultiFab: each covered coarse cell becomes the mean of its
// ratio x ratio fine children. This keeps coarse data consistent under
// refined regions, as Castro does after each step.
func AverageDown(crse, fine *MultiFab, ratio int) {
	inv := 1.0 / float64(ratio*ratio)
	plan := averageDownPlan(crse.BA, fine.BA, ratio)
	crse.ForEachFAB(func(ci int, cf *FAB) {
		for _, p := range plan.byDst[ci] {
			ff := fine.FABs[p.srcIdx]
			overlap := p.region
			for c := 0; c < crse.NComp; c++ {
				for j := overlap.Lo.Y; j <= overlap.Hi.Y; j++ {
					for i := overlap.Lo.X; i <= overlap.Hi.X; i++ {
						var s float64
						for dj := 0; dj < ratio; dj++ {
							for di := 0; di < ratio; di++ {
								s += ff.At(i*ratio+di, j*ratio+dj, c)
							}
						}
						cf.Set(i, j, c, s*inv)
					}
				}
			}
		}
	})
}

// FillOutflowBC fills ghost cells that lie outside the physical domain
// with the nearest interior value (zero-gradient / outflow), matching the
// paper's Listing 2 boundary flags (castro.lo_bc = 2 2, hi_bc = 2 2).
func FillOutflowBC(mf *MultiFab, domain grid.Box) {
	mf.ForEachFAB(func(_ int, f *FAB) {
		db := f.DataBox
		if domain.ContainsBox(db) {
			return
		}
		_, dc := f.Strides()
		for j := db.Lo.Y; j <= db.Hi.Y; j++ {
			inside := j >= domain.Lo.Y && j <= domain.Hi.Y
			// The source is clamped into the domain, then into this FAB's
			// data box so it is locally available (valid for boxes
			// touching the wall). Either way it lies inside the domain,
			// so no fill reads another fill's result.
			sj := clamp(clamp(j, domain.Lo.Y, domain.Hi.Y), db.Lo.Y, db.Hi.Y)
			for i := db.Lo.X; i <= db.Hi.X; i++ {
				if inside && i >= domain.Lo.X && i <= domain.Hi.X {
					i = domain.Hi.X // skip the row's in-domain run
					continue
				}
				si := clamp(clamp(i, domain.Lo.X, domain.Hi.X), db.Lo.X, db.Hi.X)
				dst, src := f.index(i, j, 0), f.index(si, sj, 0)
				for c := 0; c < f.NComp; c++ {
					f.Data[dst+c*dc] = f.Data[src+c*dc]
				}
			}
		}
	})
}

// FillPatch fills the full data box (valid + ghost) of every FAB in fine:
// first from same-level valid data, then from coarse interpolation where
// no same-level data exists, and finally applies outflow physical BCs at
// the domain edge. crse may be nil for level 0 (no interpolation source).
// The coarse-region decomposition (data box minus every same-level valid
// box) is plan-cached per grid generation instead of being recomputed by
// an all-boxes subtraction on every call.
func FillPatch(fine *MultiFab, crse *MultiFab, fineDomain grid.Box, ratio int, kind InterpKind) {
	// Same-level exchange covers the interior ghost regions.
	fine.FillBoundary()
	if crse != nil {
		plan := fillPatchCoarsePlan(fine.BA, fine.NGhost, fineDomain)
		fine.ForEachFAB(func(di int, df *FAB) {
			for _, r := range plan.byDst[di] {
				InterpRegion(df, crse, r, ratio, kind)
			}
		})
	}
	FillOutflowBC(fine, fineDomain)
}

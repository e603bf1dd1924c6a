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

// coarseLookup is the view of coarse data the per-point interpolation
// path needs. It returns the value of comp at coarse cell (i,j), clamping
// to the nearest available cell so lookups just outside the coarse valid
// union still work (e.g. against the physical boundary, where outflow BCs
// make the clamped value correct).
type coarseLookup func(i, j, comp int) float64

// interpCell computes one fine-cell value from the coarse field, one
// lookup per stencil point.
func interpCell(kind InterpKind, look coarseLookup, fi, fj, comp, ratio int) float64 {
	ci, cj := floorDiv(fi, ratio), floorDiv(fj, ratio)
	v := look(ci, cj, comp)
	if kind == InterpPiecewiseConstant {
		return v
	}
	return interpLinear(v, look(ci-1, cj, comp), look(ci+1, cj, comp),
		look(ci, cj-1, comp), look(ci, cj+1, comp),
		fineOffset(fi-ci*ratio, ratio), fineOffset(fj-cj*ratio, ratio))
}

// interpLinear is the limited-linear prolongation of coarse value v with
// left/right neighbours xl, xr and bottom/top neighbours yb, yt, to a
// fine cell offset (ox, oy) from the coarse center. Both interpolation
// paths evaluate this one expression, so a cell's value does not depend
// on which path computed it.
func interpLinear(v, xl, xr, yb, yt, ox, oy float64) float64 {
	sx := minmod(xr-v, v-xl)
	sy := minmod(yt-v, v-yb)
	return v + sx*ox + sy*oy
}

// fineOffset is the offset of the center of the fine cell at position
// local (0..ratio-1) inside its coarse parent from the parent's center, in
// coarse-cell units: (local + 0.5)/ratio - 0.5.
func fineOffset(local, ratio int) float64 {
	return (float64(local)+0.5)/float64(ratio) - 0.5
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
// edges, and its valid boxes must be disjoint, as a level's always are.
//
// Each fine row is walked in runs. A run is a stretch of fine cells whose
// coarse parents have their whole stencil (the parent, plus its four
// neighbours for InterpCellConsLinear) inside one coarse FAB's valid box:
// that FAB is found with one index probe per run and read straight from
// its backing array. Only a stencil that straddles a FAB seam or leaves
// the valid union (the domain ring) goes through the per-point clamped
// lookup.
func InterpRegion(fine *FAB, crse *MultiFab, region grid.Box, ratio int, kind InterpKind) {
	validIdx := crse.BA.Index()
	reach := 1 // stencil half-width in coarse cells
	if kind == InterpPiecewiseConstant {
		reach = 0
	}
	var look coarseLookup // made on the first stencil the direct path cannot take
	for j := region.Lo.Y; j <= region.Hi.Y; j++ {
		cj := floorDiv(j, ratio)
		oy := fineOffset(j-cj*ratio, ratio)
		for i := region.Lo.X; i <= region.Hi.X; {
			ci := floorDiv(i, ratio)
			if fi := validIdx.Owner(grid.IntVect{X: ci, Y: cj}); fi >= 0 {
				src := crse.FABs[fi]
				vb := src.ValidBox
				if ci-reach >= vb.Lo.X && ci+reach <= vb.Hi.X && cj-reach >= vb.Lo.Y && cj+reach <= vb.Hi.Y {
					// Every parent up to vb.Hi.X-reach keeps its stencil in vb.
					end := min(region.Hi.X, (vb.Hi.X-reach+1)*ratio-1)
					interpRun(fine, src, i, end, j, cj, oy, ratio, kind)
					i = end + 1
					continue
				}
			}
			if look == nil {
				look = makeClampedLookup(crse)
			}
			for end := min(region.Hi.X, (ci+1)*ratio-1); i <= end; i++ {
				for c := 0; c < fine.NComp; c++ {
					fine.Set(i, j, c, interpCell(kind, look, i, j, c, ratio))
				}
			}
		}
	}
}

// interpRun fills fine cells i0..i1 of row j, every component, from the
// coarse FAB src, which holds the whole stencil of each cell's parent in
// its valid box. cj is the parents' row and oy the row's fine offset.
func interpRun(fine, src *FAB, i0, i1, j, cj int, oy float64, ratio int, kind InterpKind) {
	sj, _ := src.Strides()
	d := src.Data
	for c := 0; c < fine.NComp; c++ {
		ci := floorDiv(i0, ratio)
		local := i0 - ci*ratio
		s := src.Offset(ci, cj, c)
		out := fine.Offset(i0, j, c)
		for k := out; k <= out+i1-i0; k++ {
			v := d[s]
			if kind != InterpPiecewiseConstant {
				v = interpLinear(v, d[s-1], d[s+1], d[s-sj], d[s+sj], fineOffset(local, ratio), oy)
			}
			fine.Data[k] = v
			if local++; local == ratio {
				local, s = 0, s+1
			}
		}
	}
}

// makeClampedLookup builds the per-point coarseLookup over the MultiFab's
// valid+ghost data, preferring valid data, then ghost data, then clamping
// to the nearest covered cell. It is InterpRegion's slow path, taken only
// where a stencil straddles a FAB seam or the domain ring: each lookup
// costs one or two spatial-index probes, and the rare clamp fallback — a
// point outside every data box, i.e. beyond the physical boundary's ghost
// ring — scans the box list.
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
		best := math.MaxInt
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

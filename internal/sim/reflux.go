package sim

import (
	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/hydro"
)

// Refluxing: the Berger–Colella coarse-fine flux correction. In a
// dimensionally split, non-subcycled advance, each directional sweep
// updates coarse cells adjacent to the fine level with the coarse flux
// through the shared face, while the fine side used (finer) fluxes through
// the same physical face. Replacing the coarse flux with the average of
// the fine fluxes restores exact conservation of the composite solution —
// which is why Castro's mass/energy sums stay flat. The correction for a
// coarse cell whose RIGHT face is a coarse-fine boundary is
//
//	U += dt/dx * (F_c(face) - mean_k F_f(face_k))
//
// and the mirror sign for a LEFT-face boundary (similarly in y).

// refluxX applies the x-direction correction between levels l and l+1,
// from the flux fields both levels' Workspaces captured in the sweep. The
// covered-cell test and the fine-flux owner search both go through spatial
// indexes built once per call, so the per-cell work is O(1) instead of a
// scan over every fine box.
func (s *Sim) refluxX(l int, dt float64) {
	crse, fine := s.Levels[l], s.Levels[l+1]
	ratio := s.Cfg.RefRatioAt(l)
	coveredIdx := fine.BA.Coarsen(ratio).Index()
	fineIdx := fine.BA.Index()
	dx := crse.Geom.CellSize[0]

	for ci, cf := range crse.State.FABs {
		vb := cf.ValidBox
		for j := vb.Lo.Y; j <= vb.Hi.Y; j++ {
			for i := vb.Lo.X; i <= vb.Hi.X; i++ {
				if coveredIdx.Contains(grid.IV(i, j)) {
					continue // under the fine level; average-down owns it
				}
				// Right face adjacent to fine region.
				if i+1 <= crse.Geom.Domain.Hi.X && coveredIdx.Contains(grid.IV(i+1, j)) {
					fc := crse.work[ci].Flux().AtX(i+1, j)
					ffAvg, ok := fineXFaceAvg(fineIdx, fine.work, (i+1)*ratio, j, ratio)
					if ok {
						applyCorrection(cf, i, j, dt/dx, sub(fc, ffAvg))
					}
				}
				// Left face adjacent to fine region.
				if i-1 >= crse.Geom.Domain.Lo.X && coveredIdx.Contains(grid.IV(i-1, j)) {
					fc := crse.work[ci].Flux().AtX(i, j)
					ffAvg, ok := fineXFaceAvg(fineIdx, fine.work, i*ratio, j, ratio)
					if ok {
						applyCorrection(cf, i, j, dt/dx, sub(ffAvg, fc))
					}
				}
			}
		}
	}
}

// refluxY mirrors refluxX for y faces.
func (s *Sim) refluxY(l int, dt float64) {
	crse, fine := s.Levels[l], s.Levels[l+1]
	ratio := s.Cfg.RefRatioAt(l)
	coveredIdx := fine.BA.Coarsen(ratio).Index()
	fineIdx := fine.BA.Index()
	dy := crse.Geom.CellSize[1]

	for ci, cf := range crse.State.FABs {
		vb := cf.ValidBox
		for j := vb.Lo.Y; j <= vb.Hi.Y; j++ {
			for i := vb.Lo.X; i <= vb.Hi.X; i++ {
				if coveredIdx.Contains(grid.IV(i, j)) {
					continue
				}
				if j+1 <= crse.Geom.Domain.Hi.Y && coveredIdx.Contains(grid.IV(i, j+1)) {
					fc := crse.work[ci].Flux().AtY(i, j+1)
					ffAvg, ok := fineYFaceAvg(fineIdx, fine.work, i, (j+1)*ratio, ratio)
					if ok {
						applyCorrection(cf, i, j, dt/dy, sub(fc, ffAvg))
					}
				}
				if j-1 >= crse.Geom.Domain.Lo.Y && coveredIdx.Contains(grid.IV(i, j-1)) {
					fc := crse.work[ci].Flux().AtY(i, j)
					ffAvg, ok := fineYFaceAvg(fineIdx, fine.work, i, j*ratio, ratio)
					if ok {
						applyCorrection(cf, i, j, dt/dy, sub(ffAvg, fc))
					}
				}
			}
		}
	}
}

// fineFaceOwner resolves which flux field holds an x- or y-face. A face at
// fine coordinate k separates cells k-1 and k along its direction, so its
// owner is whichever fine box contains either adjacent cell; when both
// sides are covered the lower box index wins, matching the historical
// first-hit-of-a-linear-scan behavior exactly.
func fineFaceOwner(fineIdx *grid.BoxIndex, a, b grid.IntVect) int {
	oa, ob := fineIdx.Owner(a), fineIdx.Owner(b)
	switch {
	case oa < 0:
		return ob
	case ob < 0:
		return oa
	case oa < ob:
		return oa
	default:
		return ob
	}
}

// fineXFaceAvg averages the ratio fine x-fluxes across the coarse face at
// fine face coordinate fx, coarse row j.
func fineXFaceAvg(fineIdx *grid.BoxIndex, fine []hydro.Workspace, fx, j, ratio int) (hydro.Cons, bool) {
	var sum hydro.Cons
	found := 0
	for fj := j * ratio; fj < (j+1)*ratio; fj++ {
		fi := fineFaceOwner(fineIdx, grid.IV(fx-1, fj), grid.IV(fx, fj))
		if fi >= 0 {
			ff := fine[fi].Flux()
			if ff != nil && ff.ContainsXFace(fx, fj) {
				sum = add(sum, ff.AtX(fx, fj))
				found++
			}
		}
	}
	if found != ratio {
		return hydro.Cons{}, false
	}
	inv := 1.0 / float64(ratio)
	return hydro.Cons{Rho: sum.Rho * inv, Mx: sum.Mx * inv, My: sum.My * inv, E: sum.E * inv}, true
}

// fineYFaceAvg averages the ratio fine y-fluxes across the coarse face at
// coarse column i, fine face coordinate fy.
func fineYFaceAvg(fineIdx *grid.BoxIndex, fine []hydro.Workspace, i, fy, ratio int) (hydro.Cons, bool) {
	var sum hydro.Cons
	found := 0
	for fi2 := i * ratio; fi2 < (i+1)*ratio; fi2++ {
		fbi := fineFaceOwner(fineIdx, grid.IV(fi2, fy-1), grid.IV(fi2, fy))
		if fbi >= 0 {
			ff := fine[fbi].Flux()
			if ff != nil && ff.ContainsYFace(fi2, fy) {
				sum = add(sum, ff.AtY(fi2, fy))
				found++
			}
		}
	}
	if found != ratio {
		return hydro.Cons{}, false
	}
	inv := 1.0 / float64(ratio)
	return hydro.Cons{Rho: sum.Rho * inv, Mx: sum.Mx * inv, My: sum.My * inv, E: sum.E * inv}, true
}

func add(a, b hydro.Cons) hydro.Cons {
	return hydro.Cons{Rho: a.Rho + b.Rho, Mx: a.Mx + b.Mx, My: a.My + b.My, E: a.E + b.E}
}

func sub(a, b hydro.Cons) hydro.Cons {
	return hydro.Cons{Rho: a.Rho - b.Rho, Mx: a.Mx - b.Mx, My: a.My - b.My, E: a.E - b.E}
}

func applyCorrection(f *amr.FAB, i, j int, scale float64, d hydro.Cons) {
	f.Add(i, j, hydro.IRho, scale*d.Rho)
	f.Add(i, j, hydro.IMx, scale*d.Mx)
	f.Add(i, j, hydro.IMy, scale*d.My)
	f.Add(i, j, hydro.IEner, scale*d.E)
}

package sim

import (
	"sort"

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

// refluxFace is one coarse-fine face a reflux pass corrects: a face of
// uncovered coarse cell (i, j), of coarse FAB fab, whose other side is
// covered by the fine level.
type refluxFace struct {
	fab, i, j int
	face      int  // coarse face coordinate along the sweep direction
	lo        bool // the face is the cell's left (x) or bottom (y) face
	owners    int  // start of the face's ratio fine-FAB indices in faceList.owners
}

// faceList holds the coarse-fine faces between a fine level and its
// coarser parent, per sweep direction, with the fine FAB owning each of
// a face's ratio fine sub-faces resolved once. It lives on the fine Level
// and is rebuilt when the parent's state MultiFab changes, which a regrid
// of the parent does; a regrid that changes the fine BoxArray replaces
// the fine Level, list and all.
type faceList struct {
	crse   *amr.MultiFab // the parent state the list was built on
	byDir  [2][]refluxFace
	owners []int
}

// refluxFaces returns the level's face list against its parent crse,
// building it on first use and whenever crse's state MultiFab changes.
func (l *Level) refluxFaces(crse *Level, ratio int) *faceList {
	if l.faces == nil || l.faces.crse != crse.State {
		l.faces = buildFaceList(crse, l, ratio)
		l.faces.crse = crse.State
	}
	return l.faces
}

// buildFaceList finds the coarse-fine faces from the edges of the
// coarsened fine boxes: an uncovered coarse cell borders the fine level
// across a face exactly when it sits just outside the low or high edge
// of some coarsened box. Each direction's list is ordered as a scan of
// the coarse FABs would meet the faces — FAB by FAB, row-major, a cell's
// right (top) face before its left (bottom) one — so a cell with a face
// on each side takes its two corrections in that order. A face is kept
// only when every fine sub-face has an owner.
func buildFaceList(crse, fine *Level, ratio int) *faceList {
	covered := fine.State.BA.Coarsen(ratio)
	coveredIdx := covered.Index()
	crseIdx := crse.State.BA.Index()
	fineIdx := fine.State.BA.Index()
	dom := crse.Geom.Domain
	fl := &faceList{}
	for dir := range fl.byDir {
		var cand []refluxFace
		for _, cb := range covered.Boxes {
			lo, hi := cb.Lo.X, cb.Hi.X
			plo, phi := cb.Lo.Y, cb.Hi.Y
			dlo, dhi := dom.Lo.X, dom.Hi.X
			if dir == 1 {
				lo, hi, plo, phi, dlo, dhi = cb.Lo.Y, cb.Hi.Y, cb.Lo.X, cb.Hi.X, dom.Lo.Y, dom.Hi.Y
			}
			for p := plo; p <= phi; p++ {
				// The cell below the box's low edge corrects its high
				// face; the one above the high edge, its low face. The
				// covered neighbour must lie in the domain.
				if lo <= dhi {
					cand = appendFace(cand, dir, lo-1, p, lo, false, crseIdx, coveredIdx)
				}
				if hi >= dlo {
					cand = appendFace(cand, dir, hi+1, p, hi+1, true, crseIdx, coveredIdx)
				}
			}
		}
		sort.Slice(cand, func(a, b int) bool {
			x, y := cand[a], cand[b]
			switch {
			case x.fab != y.fab:
				return x.fab < y.fab
			case x.j != y.j:
				return x.j < y.j
			case x.i != y.i:
				return x.i < y.i
			}
			return !x.lo && y.lo
		})
		faces := cand[:0]
		var prev refluxFace
		for k, f := range cand {
			if k > 0 && f == prev {
				continue // two coarsened boxes share the edge
			}
			prev = f
			if f.owners = fl.appendOwners(fineIdx, dir, f, ratio); f.owners >= 0 {
				faces = append(faces, f)
			}
		}
		fl.byDir[dir] = faces
	}
	return fl
}

// appendFace appends the face at coordinate face of the cell at position
// at along direction dir, pencil p, if that cell is an uncovered valid
// coarse cell.
func appendFace(cand []refluxFace, dir, at, p, face int, lo bool, crseIdx, coveredIdx *grid.BoxIndex) []refluxFace {
	c := grid.IV(at, p)
	if dir == 1 {
		c = grid.IV(p, at)
	}
	fab := crseIdx.Owner(c)
	if fab < 0 || coveredIdx.Contains(c) {
		return cand
	}
	return append(cand, refluxFace{fab: fab, i: c.X, j: c.Y, face: face, lo: lo, owners: -1})
}

// appendOwners records the fine FAB owning each of f's ratio sub-faces
// and returns where they start in fl.owners, or -1 (recording nothing)
// if some sub-face has no fine owner.
func (fl *faceList) appendOwners(fineIdx *grid.BoxIndex, dir int, f refluxFace, ratio int) int {
	start := len(fl.owners)
	ff := f.face * ratio
	for k := 0; k < ratio; k++ {
		a, b := grid.IV(ff-1, f.j*ratio+k), grid.IV(ff, f.j*ratio+k)
		if dir == 1 {
			a, b = grid.IV(f.i*ratio+k, ff-1), grid.IV(f.i*ratio+k, ff)
		}
		o := fineFaceOwner(fineIdx, a, b)
		if o < 0 {
			fl.owners = fl.owners[:start]
			return -1
		}
		fl.owners = append(fl.owners, o)
	}
	return start
}

// reflux applies the direction-dir correction between levels l and l+1,
// from the flux fields both levels' Workspaces captured in the sweep, by
// walking the fine level's face list: no index probe per coarse cell.
func (s *Sim) reflux(l, dir int, dt float64) {
	crse, fine := s.Levels[l], s.Levels[l+1]
	ratio := s.Cfg.RefRatioAt(l)
	fl := fine.refluxFaces(crse, ratio)
	scale := dt / crse.Geom.CellSize[dir]
	inv := 1.0 / float64(ratio)
	for _, f := range fl.byDir[dir] {
		p := f.j // the face's pencil: its row for x, its column for y
		if dir == 1 {
			p = f.i
		}
		fc := faceFlux(crse.work[f.fab].Flux(), dir, f.face, p)
		var sum hydro.Cons
		for k, o := range fl.owners[f.owners : f.owners+ratio] {
			sum = add(sum, faceFlux(fine.work[o].Flux(), dir, f.face*ratio, p*ratio+k))
		}
		avg := hydro.Cons{Rho: sum.Rho * inv, Mx: sum.Mx * inv, My: sum.My * inv, E: sum.E * inv}
		d := sub(fc, avg)
		if f.lo {
			d = sub(avg, fc)
		}
		applyCorrection(crse.State.FABs[f.fab], f.i, f.j, scale, d)
	}
}

// faceFlux returns the captured flux through the face at coordinate face
// along direction dir, in pencil p (a row for x faces, a column for y).
func faceFlux(ff *hydro.FluxField, dir, face, p int) hydro.Cons {
	if dir == 0 {
		return ff.AtX(face, p)
	}
	return ff.AtY(p, face)
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

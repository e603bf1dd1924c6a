package hydro

import "amrproxyio/internal/grid"

// Captured face fluxes. Refluxing (the Berger–Colella coarse-fine flux
// correction Castro applies) needs the interface fluxes each sweep
// actually used, so a capturing Workspace.Sweep records them here.

// FluxField stores the fluxes of one FAB's directional sweep.
// For an x-sweep over valid box [lo, hi]:
//
//	face index k in a row corresponds to the face between cells
//	(lo.X+k-1, j) and (lo.X+k, j), for k = 0..nx.
//
// For a y-sweep, roles of x and y swap (faces between (i, lo.Y+k-1) and
// (i, lo.Y+k)). Flux components are stored un-rotated: Mx is always
// x-momentum flux, My always y-momentum flux.
type FluxField struct {
	Valid grid.Box
	Dir   int // 0 = x faces, 1 = y faces
	nFace int // faces per pencil (nx+1 or ny+1)
	Data  []Cons
}

// AtX returns the x-face flux at face coordinate fx (cells fx-1 | fx) and
// row j. Panics if the face is outside the field.
func (ff *FluxField) AtX(fx, j int) Cons {
	return ff.Data[(j-ff.Valid.Lo.Y)*ff.nFace+(fx-ff.Valid.Lo.X)]
}

// AtY returns the y-face flux at face coordinate fy (cells fy-1 | fy) and
// column i.
func (ff *FluxField) AtY(i, fy int) Cons {
	return ff.Data[(i-ff.Valid.Lo.X)*ff.nFace+(fy-ff.Valid.Lo.Y)]
}

// ContainsXFace reports whether x-face (fx, j) lies in this field.
func (ff *FluxField) ContainsXFace(fx, j int) bool {
	return ff.Dir == 0 &&
		fx >= ff.Valid.Lo.X && fx <= ff.Valid.Hi.X+1 &&
		j >= ff.Valid.Lo.Y && j <= ff.Valid.Hi.Y
}

// ContainsYFace reports whether y-face (i, fy) lies in this field.
func (ff *FluxField) ContainsYFace(i, fy int) bool {
	return ff.Dir == 1 &&
		fy >= ff.Valid.Lo.Y && fy <= ff.Valid.Hi.Y+1 &&
		i >= ff.Valid.Lo.X && i <= ff.Valid.Hi.X
}

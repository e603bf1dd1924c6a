package hydro

import (
	"math"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
)

// FAB-level operations: time-step estimation and the dimensionally split
// advance. The AMR driver (internal/sim) is responsible for filling ghost
// cells between sweeps.

// MaxSignalSpeed scans a FAB's valid region and returns the largest
// |u|/dx + c/dx style wave speed in each direction: (sx, sy) with
// sx = max(|u| + c)/dx. The CFL time step is cfl / max(sx + sy) (the
// standard 2D corner-transport bound Castro uses).
func MaxSignalSpeed(f *amr.FAB, dx, dy, gamma float64) (sx, sy float64) {
	vb := f.ValidBox
	_, dc := f.Strides()
	d := f.Data
	for j := vb.Lo.Y; j <= vb.Hi.Y; j++ {
		row := f.Offset(vb.Lo.X, j, IRho)
		for x := row; x < row+vb.Size().X; x++ {
			w := ToPrim(Cons{Rho: d[x], Mx: d[x+IMx*dc], My: d[x+IMy*dc], E: d[x+IEner*dc]}, gamma)
			c := SoundSpeed(w, gamma)
			if v := (math.Abs(w.U) + c) / dx; v > sx {
				sx = v
			}
			if v := (math.Abs(w.V) + c) / dy; v > sy {
				sy = v
			}
		}
	}
	return
}

func consAt(f *amr.FAB, i, j int) Cons {
	return Cons{
		Rho: f.At(i, j, IRho),
		Mx:  f.At(i, j, IMx),
		My:  f.At(i, j, IMy),
		E:   f.At(i, j, IEner),
	}
}

// Workspace is the scratch one FAB's sweeps reuse: the primitive pencil,
// its interface fluxes, and the captured flux field refluxing reads. The
// zero value is ready to use. Buffers grow to the largest box swept and
// are then reused, so a Workspace kept beside its FAB makes every sweep
// after the first allocation-free, until a regrid replaces the FAB.
type Workspace struct {
	w    []Prim
	flux []Cons
	ff   FluxField
}

// resize returns s with length n, reallocating only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Sweep advances every valid cell of f by dt along direction dir (0 = x,
// 1 = y) with cell width h; two filled ghost cells are required. Each
// pencil is read straight from the FAB's backing array with the sweep
// direction's momentum as the solver's "u", so the y sweep needs no
// rotated copy. With capture, Sweep records the interface fluxes the
// update used and returns them, valid until the Workspace's next
// capturing sweep; otherwise it returns nil.
func (ws *Workspace) Sweep(f *amr.FAB, dir int, dt, h, gamma float64, capture bool) *FluxField {
	vb := f.ValidBox
	dj, dc := f.Strides()
	n, pencils := vb.Size().X, vb.Size().Y // cells per pencil, pencils
	along, across := 1, dj                 // Data steps along a pencil and between pencils
	mn, mt := IMx*dc, IMy*dc               // normal and transverse momentum planes
	if dir == 1 {
		n, pencils = pencils, n
		along, across = dj, 1
		mn, mt = mt, mn
	}
	ws.w, ws.flux = resize(ws.w, n+4), resize(ws.flux, n+1)
	w, flux := ws.w, ws.flux
	var ff *FluxField
	if capture {
		ws.ff = FluxField{Valid: vb, Dir: dir, nFace: n + 1, Data: resize(ws.ff.Data, (n+1)*pencils)}
		ff = &ws.ff
	}
	// x indexes a cell's density (plane IRho is 0); x+mn, x+mt and x+eo
	// its momenta and energy.
	d, eo := f.Data, IEner*dc
	dtOverDx := dt / h
	first := f.Offset(vb.Lo.X, vb.Lo.Y, IRho) - 2*along
	for p := 0; p < pencils; p++ {
		o := first + p*across
		for k := range w {
			x := o + k*along
			w[k] = ToPrim(Cons{Rho: d[x], Mx: d[x+mn], My: d[x+mt], E: d[x+eo]}, gamma)
		}
		interfaceFluxes(w, flux, dtOverDx, gamma)
		if ff != nil {
			faces := ff.Data[p*(n+1) : (p+1)*(n+1)]
			for k, c := range flux {
				if dir == 1 {
					c.Mx, c.My = c.My, c.Mx // store un-rotated
				}
				faces[k] = c
			}
		}
		// float64() rounds each increment before the add, so a target
		// that fuses multiply-adds updates exactly as a stored dU would.
		for k := 0; k < n; k++ {
			x := o + (k+2)*along
			c := enforceFloors(Cons{
				Rho: d[x] + float64(dtOverDx*(flux[k].Rho-flux[k+1].Rho)),
				Mx:  d[x+mn] + float64(dtOverDx*(flux[k].Mx-flux[k+1].Mx)),
				My:  d[x+mt] + float64(dtOverDx*(flux[k].My-flux[k+1].My)),
				E:   d[x+eo] + float64(dtOverDx*(flux[k].E-flux[k+1].E)),
			}, gamma)
			d[x], d[x+mn], d[x+mt], d[x+eo] = c.Rho, c.Mx, c.My, c.E
		}
	}
	return ff
}

// Flux returns the field the last capturing Sweep recorded, or nil if no
// sweep has captured.
func (ws *Workspace) Flux() *FluxField {
	if ws.ff.Data == nil {
		return nil
	}
	return &ws.ff
}

// SweepX advances every valid cell of the FAB by dt using x-direction
// fluxes, with a one-off Workspace. Two filled ghost cells are required.
func SweepX(f *amr.FAB, dt, dx, gamma float64) {
	new(Workspace).Sweep(f, 0, dt, dx, gamma, false)
}

// SweepY is SweepX along y.
func SweepY(f *amr.FAB, dt, dy, gamma float64) {
	new(Workspace).Sweep(f, 1, dt, dy, gamma, false)
}

// enforceFloors keeps density and internal energy positive after an
// update, re-deriving total energy if the pressure floor engaged.
func enforceFloors(c Cons, gamma float64) Cons {
	if c.Rho < smallDens {
		c.Rho = smallDens
		c.Mx, c.My = 0, 0
	}
	kin := 0.5 * (c.Mx*c.Mx + c.My*c.My) / c.Rho
	eint := c.E - kin
	minEint := smallPres / (gamma - 1)
	if eint < minEint {
		c.E = kin + minEint
	}
	return c
}

// SedovIC fills a state MultiFab with the Sedov initial condition:
// ambient gas everywhere, with the blast energy deposited uniformly in
// the circle of radius rInit around center (in physical coordinates).
// The deposit conserves total energy E regardless of resolution by
// scaling the energy density to the actual discrete deposit area.
func SedovIC(state *amr.MultiFab, geom grid.Geom, gamma, rho0, p0, energy, rInit float64, center [2]float64) {
	cellArea := geom.CellSize[0] * geom.CellSize[1]
	// Count deposit cells first so the discrete integral matches E.
	var depositCells int
	for _, f := range state.FABs {
		for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
			for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
				x, y := geom.CellCenter(i, j)
				if inDeposit(x, y, center, rInit) {
					depositCells++
				}
			}
		}
	}
	// If the deposit radius is below the grid resolution no center lands
	// inside; fall back to the single cell containing the blast center so
	// coarse levels still see the explosion (Castro's probin sets r_init
	// of order one fine cell, with the same effect).
	fallback := depositCells == 0
	var fi, fj int
	if fallback {
		fi = geom.Domain.Lo.X + int((center[0]-geom.ProbLo[0])/geom.CellSize[0])
		fj = geom.Domain.Lo.Y + int((center[1]-geom.ProbLo[1])/geom.CellSize[1])
		depositCells = 1
	}
	eAmbient := p0 / (gamma - 1)
	eBlast := energy / (float64(depositCells) * cellArea)
	state.ForEachFAB(func(_ int, f *amr.FAB) {
		for j := f.DataBox.Lo.Y; j <= f.DataBox.Hi.Y; j++ {
			for i := f.DataBox.Lo.X; i <= f.DataBox.Hi.X; i++ {
				x, y := geom.CellCenter(i, j)
				e := eAmbient
				if fallback {
					if i == fi && j == fj {
						e = eBlast
					}
				} else if inDeposit(x, y, center, rInit) {
					e = eBlast
				}
				f.Set(i, j, IRho, rho0)
				f.Set(i, j, IMx, 0)
				f.Set(i, j, IMy, 0)
				f.Set(i, j, IEner, e)
			}
		}
	})
}

func inDeposit(x, y float64, center [2]float64, r float64) bool {
	dx, dy := x-center[0], y-center[1]
	return dx*dx+dy*dy <= r*r
}

// TotalEnergy integrates the energy density over the valid region of a
// level (cells * cell area), for conservation checks.
func TotalEnergy(state *amr.MultiFab, geom grid.Geom) float64 {
	return state.Sum(IEner) * geom.CellSize[0] * geom.CellSize[1]
}

// TotalMass integrates density over the valid region of a level.
func TotalMass(state *amr.MultiFab, geom grid.Geom) float64 {
	return state.Sum(IRho) * geom.CellSize[0] * geom.CellSize[1]
}

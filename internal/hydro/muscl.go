package hydro

import "math"

// MUSCL-Hancock reconstruction along one pencil: slope-limited linear
// reconstruction, a half time-step predictor using the cell's own face
// fluxes, then HLLC fluxes at each interface. A pencil is a row of
// primitive states with two ghost cells on each end.

// minmodP applies the minmod limiter componentwise to primitive slopes.
func minmodP(a, b Prim) Prim {
	return Prim{
		Rho: minmod(a.Rho, b.Rho),
		U:   minmod(a.U, b.U),
		V:   minmod(a.V, b.V),
		P:   minmod(a.P, b.P),
	}
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

func subP(a, b Prim) Prim {
	return Prim{Rho: a.Rho - b.Rho, U: a.U - b.U, V: a.V - b.V, P: a.P - b.P}
}

func addScaledP(a Prim, s float64, d Prim) Prim {
	return Prim{Rho: a.Rho + s*d.Rho, U: a.U + s*d.U, V: a.V + s*d.V, P: a.P + s*d.P}
}

// floorP re-applies positivity floors after reconstruction.
func floorP(w Prim) Prim {
	if w.Rho < smallDens {
		w.Rho = smallDens
	}
	if w.P < smallPres {
		w.P = smallPres
	}
	return w
}

// hancock returns the left and right face states of cell w with limited
// slope s, both evolved by half a step (half = dt/(2dx)) with the cell's
// internal flux difference, in conserved variables.
func hancock(w, s Prim, half, gamma float64) (l, r Prim) {
	wl := floorP(addScaledP(w, -0.5, s))
	wr := floorP(addScaledP(w, +0.5, s))
	cl, cr := ToCons(wl, gamma), ToCons(wr, gamma)
	fl, fr := fluxOf(wl, cl), fluxOf(wr, cr)
	cl = Cons{cl.Rho + half*(fl.Rho-fr.Rho), cl.Mx + half*(fl.Mx-fr.Mx), cl.My + half*(fl.My-fr.My), cl.E + half*(fl.E-fr.E)}
	cr = Cons{cr.Rho + half*(fl.Rho-fr.Rho), cr.Mx + half*(fl.Mx-fr.Mx), cr.My + half*(fl.My-fr.My), cr.E + half*(fl.E-fr.E)}
	return ToPrim(cl, gamma), ToPrim(cr, gamma)
}

// interfaceFluxes fills flux[k], k = 0..n, for a pencil w of n cells with
// two ghosts per side: face k sits between cells k+1 and k+2 in w-index
// space. One pass computes each cell's slope and face states and prices
// the face to its left as soon as both sides exist, so nothing beyond w
// and flux is stored.
func interfaceFluxes(w []Prim, flux []Cons, dtOverDx, gamma float64) {
	half := 0.5 * dtOverDx
	shock := shockFactor(gamma)
	var prevR Prim // right face state of cell i-1
	for i := 1; i < len(w)-1; i++ {
		l, r := hancock(w[i], minmodP(subP(w[i+1], w[i]), subP(w[i], w[i-1])), half, gamma)
		if i > 1 {
			flux[i-2] = hllc(prevR, l, gamma, shock)
		}
		prevR = r
	}
}

package hydro

import "math"

// HLLC approximate Riemann solver for the 1D Euler equations in the
// x-direction (the y-sweep rotates velocities before calling it). Wave
// speed estimates follow Batten et al. / Toro: Roe-averaged signal
// velocities bounded by the one-sided extremes.

// HLLCFlux returns the interface flux between left and right primitive
// states.
func HLLCFlux(l, r Prim, gamma float64) Cons {
	return hllc(l, r, gamma, shockFactor(gamma))
}

// shockFactor is (γ+1)/(2γ), the coefficient of Toro's shock-speed
// correction; the sweep kernel computes it once per sweep, not per face.
func shockFactor(gamma float64) float64 { return (gamma + 1) / (2 * gamma) }

// hllc is HLLCFlux with the shock factor supplied.
func hllc(l, r Prim, gamma, shock float64) Cons {
	cl := SoundSpeed(l, gamma)
	cr := SoundSpeed(r, gamma)

	// Pressure-based wave speed estimate (PVRS, Toro §10.5).
	rhoBar := 0.5 * (l.Rho + r.Rho)
	cBar := 0.5 * (cl + cr)
	pStar := 0.5*(l.P+r.P) - 0.5*(r.U-l.U)*rhoBar*cBar
	if pStar < smallPres {
		pStar = smallPres
	}
	ql := waveSpeedFactor(pStar, l.P, shock)
	qr := waveSpeedFactor(pStar, r.P, shock)
	sl := l.U - cl*ql
	sr := r.U + cr*qr

	if sl >= 0 {
		return FluxX(l, gamma)
	}
	if sr <= 0 {
		return FluxX(r, gamma)
	}

	// Contact wave speed.
	num := r.P - l.P + l.Rho*l.U*(sl-l.U) - r.Rho*r.U*(sr-r.U)
	den := l.Rho*(sl-l.U) - r.Rho*(sr-r.U)
	var sm float64
	if math.Abs(den) < 1e-300 {
		sm = 0.5 * (l.U + r.U)
	} else {
		sm = num / den
	}

	if sm >= 0 {
		return hllcSide(l, sl, sm, gamma)
	}
	return hllcSide(r, sr, sm, gamma)
}

// waveSpeedFactor sharpens the acoustic estimate inside shocks (Toro eq.
// 10.59-10.60).
func waveSpeedFactor(pStar, p, shock float64) float64 {
	if pStar <= p {
		return 1
	}
	return math.Sqrt(1 + shock*(pStar/p-1))
}

// hllcSide evaluates the HLLC flux using the star state on side k
// (either left with speed s=sl or right with s=sr) and contact speed sm.
func hllcSide(w Prim, s, sm float64, gamma float64) Cons {
	u := ToCons(w, gamma)
	f := fluxOf(w, u)
	factor := w.Rho * (s - w.U) / (s - sm)
	eStar := u.E/w.Rho + (sm-w.U)*(sm+w.P/(w.Rho*(s-w.U)))
	uStar := Cons{
		Rho: factor,
		Mx:  factor * sm,
		My:  factor * w.V,
		E:   factor * eStar,
	}
	return Cons{
		Rho: f.Rho + s*(uStar.Rho-u.Rho),
		Mx:  f.Mx + s*(uStar.Mx-u.Mx),
		My:  f.My + s*(uStar.My-u.My),
		E:   f.E + s*(uStar.E-u.E),
	}
}

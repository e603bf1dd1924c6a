// Package hydro implements the 2D compressible Euler solver that stands in
// for Castro's hydrodynamics: gamma-law equation of state, MUSCL-Hancock
// reconstruction with minmod limiting, an HLLC approximate Riemann solver,
// dimensionally split sweeps, CFL time-step control with Castro's
// init_shrink/change_max damping, and the Sedov energy-deposit initial
// condition.
//
// The solver's job in this reproduction is to move the blast wave the way
// Castro does so the AMR hierarchy — and therefore the I/O workload the
// paper measures — evolves realistically.
//
// Workspace.Sweep is the one update kernel: it reads each pencil straight
// from the FAB's backing array, and keeps its scratch and captured fluxes
// in the Workspace, so a Workspace kept per FAB sweeps without allocating.
// SweepX and SweepY wrap it for one-off callers.
package hydro

import "math"

// Conserved component indices within the state MultiFab.
const (
	IRho  = iota // density
	IMx          // x-momentum
	IMy          // y-momentum
	IEner        // total energy density
	NCons        // number of conserved components
)

// Floors applied to keep the EOS well-defined through strong rarefactions.
const (
	smallDens = 1e-12
	smallPres = 1e-14
)

// Prim is the primitive state (density, velocities, pressure).
type Prim struct {
	Rho, U, V, P float64
}

// Cons is the conserved state (density, momenta, total energy).
type Cons struct {
	Rho, Mx, My, E float64
}

// ToPrim converts a conserved state with the given gamma, applying floors.
func ToPrim(c Cons, gamma float64) Prim {
	rho := c.Rho
	if rho < smallDens {
		rho = smallDens
	}
	u := c.Mx / rho
	v := c.My / rho
	p := (gamma - 1) * (c.E - 0.5*rho*(u*u+v*v))
	if p < smallPres {
		p = smallPres
	}
	return Prim{Rho: rho, U: u, V: v, P: p}
}

// ToCons converts a primitive state back to conserved form.
func ToCons(w Prim, gamma float64) Cons {
	return Cons{
		Rho: w.Rho,
		Mx:  w.Rho * w.U,
		My:  w.Rho * w.V,
		E:   w.P/(gamma-1) + 0.5*w.Rho*(w.U*w.U+w.V*w.V),
	}
}

// SoundSpeed returns sqrt(γ p / ρ) for a primitive state.
func SoundSpeed(w Prim, gamma float64) float64 {
	return math.Sqrt(gamma * w.P / w.Rho)
}

// Mach returns the local Mach number |vel| / c.
func Mach(w Prim, gamma float64) float64 {
	return math.Sqrt(w.U*w.U+w.V*w.V) / SoundSpeed(w, gamma)
}

// FluxX returns the x-direction Euler flux of a primitive state.
func FluxX(w Prim, gamma float64) Cons { return fluxOf(w, ToCons(w, gamma)) }

// fluxOf is FluxX given the state's conserved form c = ToCons(w), for
// callers that need both and should run the EOS once.
func fluxOf(w Prim, c Cons) Cons {
	return Cons{
		Rho: c.Mx,
		Mx:  c.Mx*w.U + w.P,
		My:  c.My * w.U,
		E:   (c.E + w.P) * w.U,
	}
}

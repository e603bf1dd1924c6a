package hydro

import (
	"math"
	"testing"
	"testing/quick"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
)

const gamma = 1.4

func TestPrimConsRoundTrip(t *testing.T) {
	w := Prim{Rho: 2, U: 3, V: -1, P: 5}
	c := ToCons(w, gamma)
	back := ToPrim(c, gamma)
	if math.Abs(back.Rho-2) > 1e-14 || math.Abs(back.U-3) > 1e-14 ||
		math.Abs(back.V+1) > 1e-14 || math.Abs(back.P-5) > 1e-13 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestPrimConsRoundTripProperty(t *testing.T) {
	f := func(rho, u, v, p float64) bool {
		rho = 0.1 + math.Abs(math.Mod(rho, 100))
		p = 0.1 + math.Abs(math.Mod(p, 100))
		u = math.Mod(u, 50)
		v = math.Mod(v, 50)
		if math.IsNaN(rho) || math.IsNaN(u) || math.IsNaN(v) || math.IsNaN(p) {
			return true
		}
		w := Prim{Rho: rho, U: u, V: v, P: p}
		back := ToPrim(ToCons(w, gamma), gamma)
		tol := 1e-9 * (1 + math.Abs(p) + rho*(u*u+v*v))
		return math.Abs(back.Rho-rho) < tol && math.Abs(back.U-u) < tol &&
			math.Abs(back.V-v) < tol && math.Abs(back.P-p) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFloorsApplied(t *testing.T) {
	w := ToPrim(Cons{Rho: -1, Mx: 0, My: 0, E: -5}, gamma)
	if w.Rho <= 0 || w.P <= 0 {
		t.Errorf("floors not applied: %+v", w)
	}
}

func TestSoundSpeedAndMach(t *testing.T) {
	w := Prim{Rho: 1, U: 0, V: 0, P: 1}
	c := SoundSpeed(w, gamma)
	if math.Abs(c-math.Sqrt(1.4)) > 1e-14 {
		t.Errorf("c = %g", c)
	}
	w.U = 2 * c
	if m := Mach(w, gamma); math.Abs(m-2) > 1e-14 {
		t.Errorf("Mach = %g", m)
	}
}

func TestHLLCConsistency(t *testing.T) {
	// Equal states: flux must equal the exact Euler flux.
	w := Prim{Rho: 1.5, U: 0.3, V: -0.2, P: 2.0}
	got := HLLCFlux(w, w, gamma)
	want := FluxX(w, gamma)
	for _, pair := range [][2]float64{
		{got.Rho, want.Rho}, {got.Mx, want.Mx}, {got.My, want.My}, {got.E, want.E},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("HLLC consistency: got %+v want %+v", got, want)
			break
		}
	}
}

func TestHLLCSupersonicUpwinding(t *testing.T) {
	// Supersonic flow to the right: flux is the left flux exactly.
	l := Prim{Rho: 1, U: 10, V: 0, P: 1}
	r := Prim{Rho: 0.1, U: 10, V: 0, P: 0.1}
	got := HLLCFlux(l, r, gamma)
	want := FluxX(l, gamma)
	if math.Abs(got.Rho-want.Rho) > 1e-12 {
		t.Errorf("supersonic flux = %+v, want left flux %+v", got, want)
	}
	// Supersonic to the left mirrors.
	l2 := Prim{Rho: 0.1, U: -10, V: 0, P: 0.1}
	r2 := Prim{Rho: 1, U: -10, V: 0, P: 1}
	got2 := HLLCFlux(l2, r2, gamma)
	want2 := FluxX(r2, gamma)
	if math.Abs(got2.Rho-want2.Rho) > 1e-12 {
		t.Errorf("supersonic-left flux = %+v, want right flux %+v", got2, want2)
	}
}

func TestHLLCContactPreservation(t *testing.T) {
	// A stationary contact (equal pressure and velocity, different
	// densities at rest) must produce zero mass/momentum/energy flux.
	l := Prim{Rho: 1.0, U: 0, V: 0, P: 1}
	r := Prim{Rho: 0.125, U: 0, V: 0, P: 1}
	f := HLLCFlux(l, r, gamma)
	if math.Abs(f.Rho) > 1e-12 || math.Abs(f.E) > 1e-12 {
		t.Errorf("contact flux = %+v", f)
	}
	if math.Abs(f.Mx-1.0) > 1e-12 { // momentum flux = pressure
		t.Errorf("momentum flux = %g, want 1 (pressure)", f.Mx)
	}
}

// sod sets up the Sod shock tube along x on a single-box level and runs n
// steps, returning the final density profile.
func sod(t *testing.T, n int) []float64 {
	t.Helper()
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(199, 3))
	geom := grid.NewGeom(dom, [2]float64{0, 0}, [2]float64{1, 0.02})
	ba := amr.SingleBoxArray(dom, 256, 1)
	mf := amr.NewMultiFab(ba, amr.MustDistribute(ba, 1, amr.DistRoundRobin), NCons, 2)
	for _, f := range mf.FABs {
		for j := f.DataBox.Lo.Y; j <= f.DataBox.Hi.Y; j++ {
			for i := f.DataBox.Lo.X; i <= f.DataBox.Hi.X; i++ {
				x, _ := geom.CellCenter(i, j)
				w := Prim{Rho: 1, U: 0, V: 0, P: 1}
				if x > 0.5 {
					w = Prim{Rho: 0.125, U: 0, V: 0, P: 0.1}
				}
				c := ToCons(w, gamma)
				f.Set(i, j, IRho, c.Rho)
				f.Set(i, j, IMx, c.Mx)
				f.Set(i, j, IMy, c.My)
				f.Set(i, j, IEner, c.E)
			}
		}
	}
	dt := 0.0005
	for s := 0; s < n; s++ {
		amr.FillPatch(mf, nil, dom, 1, amr.InterpPiecewiseConstant)
		for _, f := range mf.FABs {
			SweepX(f, dt, geom.CellSize[0], gamma)
		}
		amr.FillPatch(mf, nil, dom, 1, amr.InterpPiecewiseConstant)
		for _, f := range mf.FABs {
			SweepY(f, dt, geom.CellSize[1], gamma)
		}
	}
	out := make([]float64, 200)
	for i := range out {
		v, _ := mf.ValueAt(grid.IV(i, 1), IRho)
		out[i] = v
	}
	return out
}

func TestSodShockTube(t *testing.T) {
	rho := sod(t, 300) // t = 0.15
	// Qualitative exact-solution checks at t=0.15:
	// left state intact near x=0, right state intact near x=1.
	if math.Abs(rho[5]-1.0) > 0.01 {
		t.Errorf("left state = %g", rho[5])
	}
	if math.Abs(rho[195]-0.125) > 0.01 {
		t.Errorf("right state = %g", rho[195])
	}
	// Post-shock density plateau ~0.2655; shock near x ≈ 0.76 at t=0.15.
	plateau := rho[142] // x ≈ 0.7125, between contact (~0.685) and shock (~0.76)
	if math.Abs(plateau-0.2655) > 0.03 {
		t.Errorf("post-shock plateau = %g, want ~0.2655", plateau)
	}
	// Monotone decrease through the rarefaction region (x in [0.3, 0.45]).
	for i := 62; i < 88; i++ {
		if rho[i+1] > rho[i]+1e-6 {
			t.Errorf("rarefaction not monotone at %d: %g -> %g", i, rho[i], rho[i+1])
			break
		}
	}
}

func TestSweepConservation(t *testing.T) {
	// With outflow boundaries far from the action, interior sweeps
	// conserve mass to machine precision.
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(63, 63))
	geom := grid.NewGeom(dom, [2]float64{0, 0}, [2]float64{1, 1})
	ba := amr.SingleBoxArray(dom, 64, 1)
	mf := amr.NewMultiFab(ba, amr.MustDistribute(ba, 1, amr.DistRoundRobin), NCons, 2)
	SedovIC(mf, geom, gamma, 1.0, 1e-5, 1.0, 0.1, [2]float64{0.5, 0.5})
	mass0 := TotalMass(mf, geom)
	energy0 := TotalEnergy(mf, geom)
	dt := 1e-4
	for s := 0; s < 5; s++ {
		amr.FillPatch(mf, nil, dom, 1, amr.InterpPiecewiseConstant)
		for _, f := range mf.FABs {
			SweepX(f, dt, geom.CellSize[0], gamma)
		}
		amr.FillPatch(mf, nil, dom, 1, amr.InterpPiecewiseConstant)
		for _, f := range mf.FABs {
			SweepY(f, dt, geom.CellSize[1], gamma)
		}
	}
	if rel := math.Abs(TotalMass(mf, geom)-mass0) / mass0; rel > 1e-10 {
		t.Errorf("mass drift = %g", rel)
	}
	if rel := math.Abs(TotalEnergy(mf, geom)-energy0) / energy0; rel > 1e-10 {
		t.Errorf("energy drift = %g", rel)
	}
}

func TestSedovICEnergyDeposit(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(63, 63))
	geom := grid.NewGeom(dom, [2]float64{0, 0}, [2]float64{1, 1})
	ba := amr.SingleBoxArray(dom, 32, 8)
	mf := amr.NewMultiFab(ba, amr.MustDistribute(ba, 2, amr.DistRoundRobin), NCons, 2)
	const E = 1.0
	SedovIC(mf, geom, gamma, 1.0, 1e-5, E, 0.05, [2]float64{0.5, 0.5})
	// Total energy should equal E plus the small ambient contribution.
	ambient := 1e-5 / (gamma - 1) * 1.0 // p0/(γ-1) * area(1x1), roughly
	got := TotalEnergy(mf, geom)
	if math.Abs(got-E-ambient)/E > 0.01 {
		t.Errorf("deposited energy = %g, want ~%g", got, E+ambient)
	}
	// Density must be uniform rho0.
	if mf.Min(IRho) != 1.0 || mf.Max(IRho) != 1.0 {
		t.Errorf("density not uniform: [%g, %g]", mf.Min(IRho), mf.Max(IRho))
	}
	// Velocity zero initially.
	if mf.Max(IMx) != 0 || mf.Min(IMx) != 0 {
		t.Error("initial momentum nonzero")
	}
}

func TestMaxSignalSpeed(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(7, 7))
	ba := amr.SingleBoxArray(dom, 8, 1)
	mf := amr.NewMultiFab(ba, amr.MustDistribute(ba, 1, amr.DistRoundRobin), NCons, 0)
	w := Prim{Rho: 1, U: 3, V: -4, P: 1}
	c := ToCons(w, gamma)
	mf.ForEachFAB(func(_ int, f *amr.FAB) {
		for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
			for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
				f.Set(i, j, IRho, c.Rho)
				f.Set(i, j, IMx, c.Mx)
				f.Set(i, j, IMy, c.My)
				f.Set(i, j, IEner, c.E)
			}
		}
	})
	dx, dy := 0.1, 0.2
	sx, sy := MaxSignalSpeed(mf.FABs[0], dx, dy, gamma)
	cs := SoundSpeed(w, gamma)
	if math.Abs(sx-(3+cs)/dx) > 1e-12 {
		t.Errorf("sx = %g, want %g", sx, (3+cs)/dx)
	}
	if math.Abs(sy-(4+cs)/dy) > 1e-12 {
		t.Errorf("sy = %g, want %g", sy, (4+cs)/dy)
	}
}

func TestEnforceFloorsRecoversBadState(t *testing.T) {
	c := enforceFloors(Cons{Rho: -5, Mx: 1, My: 1, E: -10}, gamma)
	if c.Rho <= 0 {
		t.Error("density floor failed")
	}
	w := ToPrim(c, gamma)
	if w.P <= 0 {
		t.Error("pressure floor failed")
	}
}

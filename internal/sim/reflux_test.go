package sim

import (
	"math"
	"testing"

	"amrproxyio/internal/hydro"
)

// compositeMass integrates density over the composite mesh: uncovered
// coarse cells at their area plus fine cells at theirs. Because
// average-down overwrites covered coarse cells, summing level 0 after
// average-down equals the composite integral.
func compositeMass(s *Sim) float64 {
	return hydro.TotalMass(s.Levels[0].State, s.Levels[0].Geom)
}

func compositeEnergy(s *Sim) float64 {
	return hydro.TotalEnergy(s.Levels[0].State, s.Levels[0].Geom)
}

// runDrift advances n steps (no regridding, so the hierarchy is fixed and
// the only conservation mechanism in play is the flux correction) and
// returns the relative mass and energy drift.
func runDrift(t *testing.T, reflux bool, n int) (massDrift, energyDrift float64) {
	t.Helper()
	cfg := smallCfg()
	cfg.MaxLevel = 2
	cfg.RegridInt = 0 // freeze the hierarchy
	opts := DefaultOptions()
	opts.Reflux = reflux
	s, err := New(cfg, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.FinestLevel() < 1 {
		t.Fatal("no refinement; reflux test needs a coarse-fine boundary")
	}
	m0, e0 := compositeMass(s), compositeEnergy(s)
	for i := 0; i < n; i++ {
		s.Advance()
	}
	m1, e1 := compositeMass(s), compositeEnergy(s)
	return math.Abs(m1-m0) / m0, math.Abs(e1-e0) / e0
}

func TestRefluxRestoresConservation(t *testing.T) {
	// 120 steps: enough for the dt ramp (init_shrink) to release and the
	// blast to push real flux through the coarse-fine boundary. Measured
	// without reflux: mass drift ~6e-4, energy drift ~3e-2.
	const steps = 120
	mOff, eOff := runDrift(t, false, steps)
	mOn, eOn := runDrift(t, true, steps)
	// With refluxing the composite integrals are conserved to roundoff;
	// without it the coarse-fine flux mismatch leaks mass and energy.
	if mOn > 1e-11 {
		t.Errorf("refluxed mass drift = %g, want ~machine precision", mOn)
	}
	if eOn > 1e-11 {
		t.Errorf("refluxed energy drift = %g, want ~machine precision", eOn)
	}
	if mOff < 1e-6 {
		t.Errorf("no-reflux mass drift suspiciously small (%g): test not exercising the boundary", mOff)
	}
	if eOff < 1e-4 {
		t.Errorf("no-reflux energy drift suspiciously small (%g)", eOff)
	}
	if mOff < 1000*math.Max(mOn, 1e-16) {
		t.Errorf("reflux made too little difference: off %g, on %g", mOff, mOn)
	}
}

func TestRefluxDoesNotChangeSingleLevelRuns(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxLevel = 0
	run := func(reflux bool) [][]float64 {
		opts := DefaultOptions()
		opts.Reflux = reflux
		s, err := New(cfg, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			s.Advance()
		}
		return s.StateDigest()
	}
	a, b := run(true), run(false)
	for l := range a {
		for k := range a[l] {
			if a[l][k] != b[l][k] {
				t.Fatalf("single-level digests differ at [%d][%d]: %g vs %g", l, k, a[l][k], b[l][k])
			}
		}
	}
}

func TestFluxSweepsMatchPlainSweeps(t *testing.T) {
	// A capturing Workspace.Sweep must produce bit-identical states to a
	// plain one; only the flux capture differs.
	cfg := smallCfg()
	cfg.MaxLevel = 1
	mk := func() *Sim {
		s, err := New(cfg, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	ga := a.Opts.Blast.Gamma
	dt := a.ComputeDt()
	a.fillPatchAll()
	b.fillPatchAll()
	for li := range a.Levels {
		dx := a.Levels[li].Geom.CellSize[0]
		for idx, f := range a.Levels[li].State.FABs {
			hydro.SweepX(f, dt, dx, ga)
			new(hydro.Workspace).Sweep(b.Levels[li].State.FABs[idx], 0, dt, dx, ga, true)
		}
	}
	for li := range a.Levels {
		for idx := range a.Levels[li].State.FABs {
			fa, fb := a.Levels[li].State.FABs[idx], b.Levels[li].State.FABs[idx]
			for k := range fa.Data {
				if fa.Data[k] != fb.Data[k] {
					t.Fatalf("level %d fab %d data[%d]: %g vs %g", li, idx, k, fa.Data[k], fb.Data[k])
				}
			}
		}
	}
}

func TestFluxTelescoping(t *testing.T) {
	// Within one FAB, the captured fluxes must telescope: the total mass
	// change equals dt/dx * (inflow - outflow) summed over boundary faces.
	cfg := smallCfg()
	cfg.MaxLevel = 0
	s, err := New(cfg, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Opts.Blast.Gamma
	dt := s.ComputeDt()
	s.fillPatchAll()
	lev := s.Levels[0]
	dx := lev.Geom.CellSize[0]
	f := lev.State.FABs[0]
	before := f.Sum(hydro.IRho)
	ff := new(hydro.Workspace).Sweep(f, 0, dt, dx, g, true)
	after := f.Sum(hydro.IRho)

	var boundary float64
	vb := f.ValidBox
	for j := vb.Lo.Y; j <= vb.Hi.Y; j++ {
		boundary += ff.AtX(vb.Lo.X, j).Rho - ff.AtX(vb.Hi.X+1, j).Rho
	}
	want := dt / dx * boundary
	if math.Abs((after-before)-want) > 1e-10*math.Abs(before) {
		t.Errorf("mass change %g != boundary flux %g", after-before, want)
	}
}

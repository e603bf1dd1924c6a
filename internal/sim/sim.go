// Package sim is the Castro-like hydro engine: it owns the level
// hierarchy, advances it with CFL control, and regrids it from gradient
// tags. The embedded internal/driver runs the time-step loop and emits
// plotfiles on the plot_int cadence — producing exactly the (timestep,
// level, task) output hierarchy the paper measures (its Eq. 2).
//
// The load-bearing difference from Castro is non-subcycled time stepping
// (all levels advance with the finest stable dt), which leaves the
// plotfile structure and sizes untouched because plots are scheduled on
// coarse-level step counts.
package sim

import (
	"fmt"
	"math"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/driver"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/hydro"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
	"amrproxyio/internal/sedov"
)

// PlotVarNames are the components written to plotfiles: the four conserved
// fields plus six derived ones, mirroring the breadth of Castro's
// amr.derive_plot_vars=ALL output (which is what makes the paper's Eq. 3
// correction factor f as large as it is).
var PlotVarNames = []string{
	"density", "xmom", "ymom", "rho_E",
	"pressure", "x_velocity", "y_velocity", "MachNumber", "Temp", "soundspeed",
}

// Options collects the knobs beyond the Castro inputs file; the embedded
// driver.Options are the output-side ones (remap, compute phase,
// mitigation policy).
type Options struct {
	driver.Options
	Dist         amr.DistStrategy
	TagThreshold float64 // relative density-gradient refinement threshold
	ErrorBuf     int     // tag buffer cells (amr.n_error_buf)
	Interp       amr.InterpKind
	Blast        sedov.Params
	RInit        float64    // initial deposit radius (physical units)
	Center       [2]float64 // blast center
	// Reflux enables the Berger–Colella coarse-fine flux correction,
	// keeping the composite solution conservative as Castro does.
	Reflux bool
}

// DefaultOptions mirrors the Castro Sedov problem setup.
func DefaultOptions() Options {
	return Options{
		Dist:         amr.DistKnapsack,
		TagThreshold: 0.5,
		ErrorBuf:     2,
		Interp:       amr.InterpCellConsLinear,
		Blast:        sedov.Default(),
		RInit:        0.02,
		Center:       [2]float64{0.5, 0.5},
		Reflux:       true,
	}
}

// Level is one mesh level of the hierarchy.
type Level struct {
	Geom  grid.Geom
	BA    amr.BoxArray
	DM    amr.DistributionMapping
	State *amr.MultiFab

	// work is one sweep Workspace per FAB: the pencil scratch and the
	// captured fluxes every Advance reuses until a regrid replaces the
	// level.
	work []hydro.Workspace
}

// workspaces returns the level's per-FAB Workspaces, made on first use.
func (l *Level) workspaces() []hydro.Workspace {
	if len(l.work) != len(l.State.FABs) {
		l.work = make([]hydro.Workspace, len(l.State.FABs))
	}
	return l.work
}

// Sim is the running simulation. The embedded driver runs it (Run) and
// owns its output ledger (WritePlot, Records, NPlots, Mitigation).
type Sim struct {
	*driver.Driver
	Cfg  inputs.CastroInputs
	Opts Options

	Levels []*Level // Levels[0] always present; finer levels may be absent
	Step   int
	Time   float64
	LastDt float64
}

const nGhost = 2 // MUSCL-Hancock stencil width

// New builds the initial hierarchy at t=0: level 0 from the inputs'
// domain, then finer levels grown iteratively from gradient tags, each
// re-initialized with the analytic initial condition. fs receives all
// plotfile writes (it may be nil if the caller never plots).
func New(cfg inputs.CastroInputs, opts Options, fs *iosim.FileSystem) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{Cfg: cfg, Opts: opts}
	s.Driver = driver.New(s, cfg, opts.Options, fs)
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(cfg.NCell[0]-1, cfg.NCell[1]-1))
	g0 := grid.NewGeom(dom, cfg.ProbLo, cfg.ProbHi)
	ba0 := amr.SingleBoxArray(dom, cfg.MaxGridSize, cfg.BlockingFactor)
	dm0, err := amr.Distribute(ba0, cfg.NProcs, opts.Dist)
	if err != nil {
		return nil, err
	}
	l0 := &Level{Geom: g0, BA: ba0, DM: dm0, State: amr.NewMultiFab(ba0, dm0, hydro.NCons, nGhost)}
	s.Levels = []*Level{l0}
	s.initLevelData(l0)

	// Iteratively build finer levels at t=0. Repeat the whole build a few
	// times so refinement of refined data stabilizes, as AMReX's
	// init_from_scratch does.
	for iter := 0; iter < 2; iter++ {
		for l := 0; l < cfg.MaxLevel; l++ {
			if l >= len(s.Levels) {
				break
			}
			ba := s.makeFineBoxArray(l)
			if ba.Len() == 0 {
				s.Levels = s.Levels[:l+1]
				break
			}
			dm, err := amr.Distribute(ba, cfg.NProcs, opts.Dist)
			if err != nil {
				return nil, err
			}
			fine := &Level{
				Geom:  s.Levels[l].Geom.Refine(cfg.RefRatioAt(l)),
				BA:    ba,
				DM:    dm,
				State: amr.NewMultiFab(ba, dm, hydro.NCons, nGhost),
			}
			if l+1 < len(s.Levels) {
				s.Levels[l+1] = fine
			} else {
				s.Levels = append(s.Levels, fine)
			}
			s.initLevelData(fine)
		}
	}
	s.averageDownAll()
	return s, nil
}

// initLevelData applies the Sedov initial condition on a level.
func (s *Sim) initLevelData(l *Level) {
	b := s.Opts.Blast
	hydro.SedovIC(l.State, l.Geom, b.Gamma, b.Rho0, b.P0, b.E, s.Opts.RInit, s.Opts.Center)
}

// FinestLevel returns the index of the finest active level.
func (s *Sim) FinestLevel() int { return len(s.Levels) - 1 }

// fillPatchLevel fills ghosts of level l (coarse levels must already be
// patched).
func (s *Sim) fillPatchLevel(l int) {
	lev := s.Levels[l]
	if l == 0 {
		amr.FillPatch(lev.State, nil, lev.Geom.Domain, 1, s.Opts.Interp)
		return
	}
	amr.FillPatch(lev.State, s.Levels[l-1].State, lev.Geom.Domain, s.Cfg.RefRatioAt(l-1), s.Opts.Interp)
}

func (s *Sim) fillPatchAll() {
	for l := range s.Levels {
		s.fillPatchLevel(l)
	}
}

// ComputeDt returns the global CFL-limited time step across all levels,
// with Castro's init_shrink and change_max controls applied.
func (s *Sim) ComputeDt() float64 {
	g := s.Opts.Blast.Gamma
	minDt := math.Inf(1)
	for _, lev := range s.Levels {
		dx, dy := lev.Geom.CellSize[0], lev.Geom.CellSize[1]
		// Per-FAB signal-speed scans run in parallel; the min-reduction is
		// serial in box order, so dt stays deterministic.
		sums := make([]float64, len(lev.State.FABs))
		lev.State.ForEachFAB(func(i int, f *amr.FAB) {
			sx, sy := hydro.MaxSignalSpeed(f, dx, dy, g)
			sums[i] = sx + sy
		})
		for _, sum := range sums {
			if sum > 0 {
				if dt := s.Cfg.CFL / sum; dt < minDt {
					minDt = dt
				}
			}
		}
	}
	if math.IsInf(minDt, 1) {
		minDt = s.Cfg.StopTime / float64(max(s.Cfg.MaxStep, 1))
	}
	if s.Step == 0 {
		minDt *= s.Cfg.InitShrink
	} else if s.LastDt > 0 && minDt > s.Cfg.ChangeMax*s.LastDt {
		minDt = s.Cfg.ChangeMax * s.LastDt
	}
	if s.Cfg.StopTime > 0 && s.Time+minDt > s.Cfg.StopTime {
		minDt = s.Cfg.StopTime - s.Time
	}
	return minDt
}

// Advance takes one non-subcycled time step on every level: an x sweep on
// all levels (with coarse-fine refluxing), ghost refill, a y sweep (again
// refluxed), then average-down to keep coarse data consistent under
// refined regions.
func (s *Sim) Advance() {
	dt := s.ComputeDt()
	g := s.Opts.Blast.Gamma

	s.fillPatchAll()
	s.sweepAll(dt, g, 0)
	if s.Opts.Reflux {
		for l := 0; l < len(s.Levels)-1; l++ {
			s.refluxX(l, dt)
		}
	}

	s.fillPatchAll()
	s.sweepAll(dt, g, 1)
	if s.Opts.Reflux {
		for l := 0; l < len(s.Levels)-1; l++ {
			s.refluxY(l, dt)
		}
	}

	s.averageDownAll()
	s.Step++
	s.Time += dt
	s.LastDt = dt
}

// sweepAll advances every level in direction dir (0=x, 1=y) through the
// levels' Workspaces, which capture the face fluxes when refluxing is
// enabled.
func (s *Sim) sweepAll(dt, gamma float64, dir int) {
	for _, lev := range s.Levels {
		h := lev.Geom.CellSize[dir]
		work := lev.workspaces()
		lev.State.ForEachFAB(func(idx int, f *amr.FAB) {
			work[idx].Sweep(f, dir, dt, h, gamma, s.Opts.Reflux)
		})
	}
}

func (s *Sim) averageDownAll() {
	for l := len(s.Levels) - 2; l >= 0; l-- {
		amr.AverageDown(s.Levels[l].State, s.Levels[l+1].State, s.Cfg.RefRatioAt(l))
	}
}

// makeFineBoxArray produces the BoxArray for level l+1 from tags on level
// l, including tags that keep the current level l+2 nested, clipped for
// proper nesting inside level l.
func (s *Sim) makeFineBoxArray(l int) amr.BoxArray {
	lev := s.Levels[l]
	s.fillPatchLevelChain(l)
	// Castro's Sedov setup tags on density and pressure gradients; the
	// energy field stands in for pressure (they are proportional at rest,
	// and both steepen at the shock).
	tags := amr.TagGradient(lev.State, hydro.IRho, s.Opts.TagThreshold)
	for _, p := range amr.TagGradient(lev.State, hydro.IEner, s.Opts.TagThreshold).Points() {
		tags.Add(p)
	}
	// Keep the existing grandchild level covered.
	if l+2 < len(s.Levels) {
		ratioProd := s.Cfg.RefRatioAt(l) * s.Cfg.RefRatioAt(l+1)
		for _, b := range s.Levels[l+2].BA.Boxes {
			cb := b.Coarsen(ratioProd)
			for j := cb.Lo.Y; j <= cb.Hi.Y; j++ {
				for i := cb.Lo.X; i <= cb.Hi.X; i++ {
					tags.Add(grid.IV(i, j))
				}
			}
		}
	}
	ba := amr.MakeFineBoxArray(tags, lev.Geom.Domain, s.Cfg.RefRatioAt(l),
		s.Cfg.BlockingFactor, s.Cfg.MaxGridSize, s.Cfg.GridEff, s.Opts.ErrorBuf)
	if l > 0 {
		ba = amr.EnforceNesting(ba, lev.BA, s.Cfg.RefRatioAt(l))
	}
	return ba
}

// fillPatchLevelChain patches levels 0..l in order (needed before tagging
// level l).
func (s *Sim) fillPatchLevelChain(l int) {
	for k := 0; k <= l; k++ {
		s.fillPatchLevel(k)
	}
}

// Regrid rebuilds every level above 0 from fresh tags, carrying data over
// from the old hierarchy where it overlaps and interpolating from the
// coarser level elsewhere. The only error source is an unknown
// distribution strategy, which New already rejects, so a validated Sim
// never fails here.
func (s *Sim) Regrid() error {
	for l := 0; l < s.Cfg.MaxLevel; l++ {
		if l >= len(s.Levels) {
			break
		}
		ba := s.makeFineBoxArray(l)
		if ba.Len() == 0 {
			s.Levels = s.Levels[:l+1]
			return nil
		}
		dm, err := amr.Distribute(ba, s.Cfg.NProcs, s.Opts.Dist)
		if err != nil {
			return err
		}
		ratio := s.Cfg.RefRatioAt(l)
		fine := &Level{
			Geom:  s.Levels[l].Geom.Refine(ratio),
			BA:    ba,
			DM:    dm,
			State: amr.NewMultiFab(ba, dm, hydro.NCons, nGhost),
		}
		// Fill new level: interpolate everything from the (already
		// regridded) coarse level, then overwrite with old same-level data
		// where it exists.
		s.fillPatchLevel(l)
		fine.State.ForEachFAB(func(_ int, f *amr.FAB) {
			amr.InterpRegion(f, s.Levels[l].State, f.ValidBox, ratio, s.Opts.Interp)
		})
		if l+1 < len(s.Levels) {
			s.Levels[l+1].State.CopyInto(fine.State)
			s.Levels[l+1] = fine
		} else {
			s.Levels = append(s.Levels, fine)
		}
	}
	s.averageDownAll()
	return nil
}

// ShouldPlot reports whether the current step is a plot step.
func (s *Sim) ShouldPlot() bool { return driver.PlotStep(s.Cfg, s.Step) }

// Progress reports the step count and simulated time (driver.Model).
func (s *Sim) Progress() (int, float64) { return s.Step, s.Time }

// PlotSpec assembles the current hierarchy into a plotfile spec with the
// derived plot variables computed.
func (s *Sim) PlotSpec() plotfile.Spec {
	spec := plotfile.Spec{
		Root:     fmt.Sprintf("%s%05d", s.Cfg.PlotFile, s.Step),
		VarNames: PlotVarNames,
		Time:     s.Time,
		Step:     s.Step,
		NProcs:   s.Cfg.NProcs,
	}
	for l, lev := range s.Levels {
		plotMF := s.derivePlotData(lev)
		spec.Levels = append(spec.Levels, plotfile.LevelSpec{
			Geom:     lev.Geom,
			BA:       lev.BA,
			DM:       lev.DM,
			RefRatio: s.Cfg.RefRatioAt(l),
			State:    plotMF,
		})
	}
	return spec
}

// derivePlotData builds the 10-component plot MultiFab from the conserved
// state.
func (s *Sim) derivePlotData(lev *Level) *amr.MultiFab {
	g := s.Opts.Blast.Gamma
	out := amr.NewMultiFab(lev.BA, lev.DM, len(PlotVarNames), 0)
	out.ForEachFAB(func(idx int, of *amr.FAB) {
		sf := lev.State.FABs[idx]
		for j := of.ValidBox.Lo.Y; j <= of.ValidBox.Hi.Y; j++ {
			for i := of.ValidBox.Lo.X; i <= of.ValidBox.Hi.X; i++ {
				c := hydro.Cons{
					Rho: sf.At(i, j, hydro.IRho),
					Mx:  sf.At(i, j, hydro.IMx),
					My:  sf.At(i, j, hydro.IMy),
					E:   sf.At(i, j, hydro.IEner),
				}
				w := hydro.ToPrim(c, g)
				cs := hydro.SoundSpeed(w, g)
				of.Set(i, j, 0, c.Rho)
				of.Set(i, j, 1, c.Mx)
				of.Set(i, j, 2, c.My)
				of.Set(i, j, 3, c.E)
				of.Set(i, j, 4, w.P)
				of.Set(i, j, 5, w.U)
				of.Set(i, j, 6, w.V)
				of.Set(i, j, 7, hydro.Mach(w, g))
				of.Set(i, j, 8, w.P/w.Rho) // ideal-gas temperature, R=1
				of.Set(i, j, 9, cs)
			}
		}
	})
	return out
}

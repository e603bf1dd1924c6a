// Package sim is the Castro-like hydro engine. What is its own is the
// physics: it tags density and energy gradients, advances every level
// with hydro sweeps under a CFL step, and fills a new level from the
// Sedov initial condition (at t=0) or from the old hierarchy plus
// interpolation (on a regrid). Everything else it shares with the
// surrogate: levels are laid out by driver.Level0 and driver.FineLevel,
// the stable step is clamped by inputs.CastroInputs.ClampDt, and the
// embedded internal/driver runs the time-step loop and emits plotfiles
// on the plot_int cadence — producing exactly the (timestep, level,
// task) output hierarchy the paper measures (its Eq. 2).
//
// The load-bearing difference from Castro is non-subcycled time stepping
// (all levels advance with the finest stable dt), which leaves the
// plotfile structure and sizes untouched because plots are scheduled on
// coarse-level step counts. It is also what makes the levels independent
// within a sweep: once the ghosts are patched, a FAB's sweep reads and
// writes only that FAB and its Workspace. So the sweeps and the dt scan
// each run as one worker pool over every level's FABs (amr.ForEach), not
// one pool per level with a barrier after each; the passes that move
// data between levels (FillPatch coarse to fine, refluxing and
// AverageDown fine to coarse) keep their per-level order. No output
// depends on the worker count.
package sim

import (
	"math"
	"slices"
	"strconv"
	"sync"

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

// The Castro Sedov problem setup: the blast, where and how wide it is
// deposited, how it is tagged and how new fine data is interpolated.
const (
	tagThreshold = 0.5  // relative density-gradient refinement threshold
	errorBuf     = 2    // tag buffer cells (amr.n_error_buf)
	rInit        = 0.02 // initial deposit radius (physical units)
	interp       = amr.InterpCellConsLinear
)

var (
	blast  = sedov.Default()
	center = [2]float64{0.5, 0.5} // blast center
)

// Options collects the knobs beyond the Castro inputs file; the embedded
// driver.Options are the output-side ones (remap, compute phase,
// mitigation policy).
type Options struct {
	driver.Options
	Dist amr.DistStrategy
	// Reflux enables the Berger–Colella coarse-fine flux correction,
	// keeping the composite solution conservative as Castro does.
	Reflux bool
}

// DefaultOptions mirrors the Castro Sedov run: knapsack placement and
// refluxing on.
func DefaultOptions() Options {
	return Options{Dist: amr.DistKnapsack, Reflux: true}
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
	// faces is the coarse-fine face list refluxing this level's parent
	// walks, made on first use (nil on level 0).
	faces *faceList
}

// newLevel makes a level of the given layout with unfilled state.
func newLevel(g grid.Geom, ba amr.BoxArray, dm amr.DistributionMapping) *Level {
	return &Level{Geom: g, BA: ba, DM: dm, State: amr.NewMultiFab(ba, dm, hydro.NCons, nGhost)}
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

	fabs hierFABs
}

// fabRef names one FAB of the hierarchy: its level and its box index.
type fabRef struct {
	lev *Level
	idx int
}

// hierFABs is every level's FABs as one list in (level, box) order, the
// items of the passes that run as one pool over the hierarchy, plus the
// dt scan's per-FAB signal speeds. It lives until the hierarchy changes,
// as the levels' Workspaces do.
type hierFABs struct {
	levels []*Level // the hierarchy refs lists
	refs   []fabRef
	speeds []float64
}

// allFABs returns every level's FABs in (level, box) order, listing them
// again only when Levels has changed since the last call. It also makes
// each listed level's Workspaces, so the pooled sweeps never do.
func (s *Sim) allFABs() []fabRef {
	if slices.Equal(s.fabs.levels, s.Levels) {
		return s.fabs.refs
	}
	var refs []fabRef
	for _, lev := range s.Levels {
		if len(lev.work) != len(lev.State.FABs) {
			lev.work = make([]hydro.Workspace, len(lev.State.FABs))
		}
		for i := range lev.State.FABs {
			refs = append(refs, fabRef{lev, i})
		}
	}
	s.fabs = hierFABs{levels: slices.Clone(s.Levels), refs: refs, speeds: make([]float64, len(refs))}
	return refs
}

const nGhost = 2 // MUSCL-Hancock stencil width

// New builds the initial hierarchy at t=0: level 0 from the inputs'
// domain, then finer levels grown from gradient tags, each initialized
// with the analytic initial condition. The whole build runs twice so
// refinement of refined data stabilizes, as AMReX's init_from_scratch
// does. fs receives all plotfile writes (it may be nil if the caller
// never plots).
func New(cfg inputs.CastroInputs, opts Options, fs *iosim.FileSystem) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{Cfg: cfg, Opts: opts}
	s.Driver = driver.New(s, cfg, opts.Options, fs)
	g0, ba0, dm0, err := driver.Level0(cfg, opts.Dist)
	if err != nil {
		return nil, err
	}
	l0 := newLevel(g0, ba0, dm0)
	s.Levels = []*Level{l0}
	s.initLevelData(l0)
	for pass := 0; pass < 2; pass++ {
		if _, err := s.regrid(true); err != nil {
			return nil, err
		}
	}
	s.averageDownAll()
	return s, nil
}

// initLevelData applies the Sedov initial condition on a level.
func (s *Sim) initLevelData(l *Level) {
	hydro.SedovIC(l.State, l.Geom, blast.Gamma, blast.Rho0, blast.P0, blast.E, rInit, center)
}

// FinestLevel returns the index of the finest active level.
func (s *Sim) FinestLevel() int { return len(s.Levels) - 1 }

// fillPatchLevel fills ghosts of level l (coarse levels must already be
// patched).
func (s *Sim) fillPatchLevel(l int) {
	lev := s.Levels[l]
	if l == 0 {
		amr.FillPatch(lev.State, nil, lev.Geom.Domain, 1, interp)
		return
	}
	amr.FillPatch(lev.State, s.Levels[l-1].State, lev.Geom.Domain, s.Cfg.RefRatioAt(l-1), interp)
}

func (s *Sim) fillPatchAll() {
	for l := range s.Levels {
		s.fillPatchLevel(l)
	}
}

// ComputeDt returns the global CFL-limited time step across all levels,
// with Castro's init_shrink and change_max controls applied.
func (s *Sim) ComputeDt() float64 {
	// The per-FAB signal-speed scans run as one pool over every level; the
	// min-reduction is serial in (level, box) order, so dt stays the same
	// bit for bit at any worker count.
	refs := s.allFABs()
	speeds := s.fabs.speeds
	amr.ForEach(refs, func(i int, r fabRef) {
		dx := r.lev.Geom.CellSize
		sx, sy := hydro.MaxSignalSpeed(r.lev.State.FABs[r.idx], dx[0], dx[1], blast.Gamma)
		speeds[i] = sx + sy
	})
	minDt := math.Inf(1)
	for _, sum := range speeds {
		if sum > 0 {
			if dt := s.Cfg.CFL / sum; dt < minDt {
				minDt = dt
			}
		}
	}
	if math.IsInf(minDt, 1) {
		minDt = s.Cfg.StopTime / float64(max(s.Cfg.MaxStep, 1))
	}
	return s.Cfg.ClampDt(minDt, s.Step, s.Time, s.LastDt)
}

// Advance takes one non-subcycled time step on every level: an x sweep on
// all levels (with coarse-fine refluxing), ghost refill, a y sweep (again
// refluxed), then average-down to keep coarse data consistent under
// refined regions.
func (s *Sim) Advance() {
	dt := s.ComputeDt()

	s.fillPatchAll()
	s.sweepAll(dt, 0)
	if s.Opts.Reflux {
		for l := 0; l < len(s.Levels)-1; l++ {
			s.reflux(l, 0, dt)
		}
	}

	s.fillPatchAll()
	s.sweepAll(dt, 1)
	if s.Opts.Reflux {
		for l := 0; l < len(s.Levels)-1; l++ {
			s.reflux(l, 1, dt)
		}
	}

	s.averageDownAll()
	s.Step++
	s.Time += dt
	s.LastDt = dt
}

// sweepAll advances every level in direction dir (0=x, 1=y) through the
// levels' Workspaces, which capture the face fluxes when refluxing is
// enabled. The ghosts are patched, so the levels are independent: every
// level's FABs are claimed from one pool.
func (s *Sim) sweepAll(dt float64, dir int) {
	amr.ForEach(s.allFABs(), func(_ int, r fabRef) {
		lev := r.lev
		lev.work[r.idx].Sweep(lev.State.FABs[r.idx], dir, dt, lev.Geom.CellSize[dir], blast.Gamma, s.Opts.Reflux)
	})
}

func (s *Sim) averageDownAll() {
	for l := len(s.Levels) - 2; l >= 0; l-- {
		amr.AverageDown(s.Levels[l].State, s.Levels[l+1].State, s.Cfg.RefRatioAt(l))
	}
}

// tags tags level l for refinement, including the cells that keep the
// current level l+2 nested. It patches level l's ghosts for the tagging
// stencil, and only level l: regrid tags levels in order 0..l, so each
// coarser level was patched by an earlier call and has not changed since
// (FillPatch writes only ghost cells).
func (s *Sim) tags(l int) *amr.TagSet {
	s.fillPatchLevel(l)
	// Castro's Sedov setup tags on density and pressure gradients; the
	// energy field stands in for pressure (they are proportional at rest,
	// and both steepen at the shock).
	tags := amr.TagGradient(s.Levels[l].State, []int{hydro.IRho, hydro.IEner}, tagThreshold)
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
	return tags
}

// Regrid rebuilds every level above 0 from fresh tags, carrying data over
// from the old hierarchy where it overlaps and interpolating from the
// coarser level elsewhere. The only error source is an unknown
// distribution strategy, which New already rejects, so a validated Sim
// never fails here.
func (s *Sim) Regrid() error {
	if short, err := s.regrid(false); short || err != nil {
		return err
	}
	s.averageDownAll()
	return nil
}

// regrid rebuilds levels 1..max_level in order from each coarser level's
// tags, filling a new level with the initial condition (fromIC) or from
// the old hierarchy. It stops at the first level with no tagged boxes,
// dropping it and every finer level, and reports that it stopped short.
func (s *Sim) regrid(fromIC bool) (short bool, err error) {
	// The levels are about to be replaced: drop the list so it does not
	// keep the old ones alive until the next step lists the new ones.
	s.fabs = hierFABs{}
	for l := 0; l < s.Cfg.MaxLevel; l++ {
		crse := s.Levels[l]
		// Tagging patches level l, which is also what interpolating the
		// new level l+1 from it needs.
		ba, dm, err := driver.FineLevel(s.Cfg, s.Opts.Dist, l, s.tags(l), errorBuf, crse.Geom.Domain, crse.BA)
		if err != nil {
			return false, err
		}
		if ba.Len() == 0 {
			s.Levels = s.Levels[:l+1]
			return true, nil
		}
		ratio := s.Cfg.RefRatioAt(l)
		fine := newLevel(crse.Geom.Refine(ratio), ba, dm)
		var old *amr.MultiFab
		if l+1 < len(s.Levels) {
			old = s.Levels[l+1].State
			s.Levels[l+1] = fine
		} else {
			s.Levels = append(s.Levels, fine)
		}
		if fromIC {
			s.initLevelData(fine)
		} else {
			fillRegridded(fine.State, crse.State, old, ratio, interp)
		}
	}
	return false, nil
}

// fillRegridded fills a regridded level's state dst: old same-level data
// wherever old's valid boxes reach (CopyInto, ghosts included), and
// interpolation from the (already regridded) coarse level crse over the
// rest of each new valid box. Interpolating only that complement gives
// the same floats as interpolating the whole box and letting CopyInto
// overwrite it. old is nil for a level that did not exist before.
func fillRegridded(dst, crse, old *amr.MultiFab, ratio int, kind amr.InterpKind) {
	dst.ForEachFAB(func(_ int, f *amr.FAB) {
		if old == nil {
			amr.InterpRegion(f, crse, f.ValidBox, ratio, kind)
			return
		}
		for _, r := range old.BA.Complement(f.ValidBox) {
			amr.InterpRegion(f, crse, r, ratio, kind)
		}
	})
	if old != nil {
		old.CopyInto(dst)
	}
}

// ShouldPlot reports whether the current step is a plot step.
func (s *Sim) ShouldPlot() bool { return driver.PlotStep(s.Cfg, s.Step) }

// Progress reports the step count and simulated time (driver.Model).
func (s *Sim) Progress() (int, float64) { return s.Step, s.Time }

// PlotSpec assembles the current hierarchy into a plotfile spec. A
// level's derived plot variables are computed on the first State call,
// which only a Cell_D encoder makes, and at most once per plot.
func (s *Sim) PlotSpec() plotfile.Spec {
	spec := plotfile.Spec{
		Root:     dumpRoot(s.Cfg.PlotFile, s.Step),
		VarNames: PlotVarNames,
		Time:     s.Time,
		Step:     s.Step,
		NProcs:   s.Cfg.NProcs,
		Levels:   make([]plotfile.LevelSpec, len(s.Levels)),
	}
	plots := make([]plotState, len(s.Levels))
	for l, lev := range s.Levels {
		plots[l].lev = lev
		spec.Levels[l] = plotfile.LevelSpec{
			Geom:     lev.Geom,
			BA:       lev.BA,
			DM:       lev.DM,
			RefRatio: s.Cfg.RefRatioAt(l),
			State:    plots[l].get,
		}
	}
	return spec
}

// dumpRoot names a plot or checkpoint directory as fmt's "%s%05d" would,
// in one allocation. fmt's pooled printer is dropped at random under the
// race detector, which would make PlotSpec's allocation count vary.
func dumpRoot(prefix string, step int) string {
	var buf [64]byte
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(step), 10)
	b := append(buf[:0], prefix...)
	for n := len(d); n < 5; n++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// plotState is one level's plot MultiFab, derived on first use.
type plotState struct {
	once sync.Once
	lev  *Level
	mf   *amr.MultiFab
}

func (p *plotState) get() *amr.MultiFab {
	p.once.Do(func() { p.mf = derivePlotData(p.lev) })
	return p.mf
}

// derivePlotData builds the 10-component plot MultiFab from the conserved
// state.
func derivePlotData(lev *Level) *amr.MultiFab {
	g := blast.Gamma
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

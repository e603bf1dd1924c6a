// Package surrogate generates the paper's Summit-scale I/O workloads
// (meshes up to 131072 x 131072 ≈ 17B cells on up to 1024 ranks) without
// solving hydrodynamics. The analytic Sedov–Taylor front location drives
// refinement tagging — a thin annulus of cells around the shock, like the
// gradient tags the real solver produces — and the identical meshing
// pipeline (Berger–Rigoutsos clustering, blocking-factor alignment,
// max-grid-size splitting, proper nesting, distribution mapping) builds the
// level hierarchy. Plotfiles then go through the same N-to-N writer in
// size-only mode, so ledger entries are byte-exact for the structure the
// hierarchy would produce, while no field memory is ever allocated.
//
// This is the substitution for the paper's Summit runs: at these scales
// the measured quantity (bytes per step/level/task) depends on grid
// counts, not field values. The run loop and every output burst belong
// to the embedded internal/driver, exactly as for the hydro engine.
//
// A Runner is single-threaded (the plotfile writer prices every rank's
// files in one loop on the Runner's goroutine), but independent Runners
// share no state: campaign.RunAll executes many surrogate cases concurrently, each
// against its own iosim.FileSystem, with ledgers identical to serial
// execution. The size-only write path is allocation-free per box —
// plotfile.CellDBytes computes exact FAB record sizes without rendering
// headers — which is what keeps 17-billion-cell dumps cheap enough to
// fan out across a worker pool.
//
// A regrid costs what the moving front costs. Level 0 and its
// distribution mapping depend only on the config, so New builds them
// once and every Regrid shares them; the tags are the annulus's cells in
// an amr.TagSet of row buckets, and knapsack placement takes its rank
// from a heap, so Table III's 262,144-box level 0 on 1024 ranks is
// neither re-split nor re-placed per step.
package surrogate

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
	"amrproxyio/internal/sim"
)

// Options tunes the surrogate's tagging and time-step model; the
// embedded driver.Options are the output-side knobs shared with sim.
type Options struct {
	driver.Options
	Dist amr.DistStrategy
	// Blast supplies the analytic front r(t).
	Blast sedov.Params
	// Center of the blast in physical coordinates.
	Center [2]float64
	// WidthCells is the half-width of the tagged annulus in cells of the
	// level being tagged — mirroring gradient tags, which span a fixed
	// number of cells at each resolution. The CFL number widens the band
	// slightly (larger cfl -> larger dt -> the front moves farther between
	// regrids, so more cells stay tagged), which reproduces the paper's
	// Fig. 6 cfl sensitivity.
	WidthCells float64
	// SignalFactor converts the shock speed into the dt-limiting signal
	// speed (shock + post-shock acoustics).
	SignalFactor float64
}

// DefaultOptions mirrors the solver's refinement behavior.
func DefaultOptions() Options {
	return Options{
		Dist:         amr.DistKnapsack,
		Blast:        sedov.Default(),
		Center:       [2]float64{0.5, 0.5},
		WidthCells:   4,
		SignalFactor: 2,
	}
}

// Runner evolves the surrogate hierarchy through time. The embedded
// driver runs it (Run) and owns its output ledger (WritePlot, Records,
// NPlots, Mitigation).
type Runner struct {
	*driver.Driver
	Cfg  inputs.CastroInputs
	Opts Options

	Geoms []grid.Geom // per level, 0..MaxLevel
	BAs   []amr.BoxArray
	DMs   []amr.DistributionMapping

	// Level 0 depends only on the config, so New builds it once and
	// every Regrid shares it (its Owner slice is never written).
	ba0 amr.BoxArray
	dm0 amr.DistributionMapping

	Step   int
	Time   float64
	LastDt float64
}

// New builds the surrogate at its starting time (front at roughly the
// initial deposit radius).
func New(cfg inputs.CastroInputs, opts Options, fs *iosim.FileSystem) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{Cfg: cfg, Opts: opts}
	r.Driver = driver.New(r, cfg, opts.Options, fs)
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(cfg.NCell[0]-1, cfg.NCell[1]-1))
	g := grid.NewGeom(dom, cfg.ProbLo, cfg.ProbHi)
	r.Geoms = []grid.Geom{g}
	r.ba0 = amr.SingleBoxArray(dom, cfg.MaxGridSize, cfg.BlockingFactor)
	dm0, err := amr.Distribute(r.ba0, cfg.NProcs, opts.Dist)
	if err != nil {
		return nil, err
	}
	r.dm0 = dm0
	for l := 0; l < cfg.MaxLevel; l++ {
		g = g.Refine(cfg.RefRatioAt(l))
		r.Geoms = append(r.Geoms, g)
	}
	// Start when the front spans a few cells of the finest level so the
	// initial hierarchy is non-trivial, as in the solver's t=0 state.
	dxF := r.Geoms[len(r.Geoms)-1].CellSize[0]
	r.Time = opts.Blast.TimeAtRadius(4 * dxF)
	if err := r.Regrid(); err != nil {
		return nil, err
	}
	return r, nil
}

// Rebuild is Regrid under the name callers driving the runner by hand
// use.
func (r *Runner) Rebuild() error { return r.Regrid() }

// Regrid regenerates every refined level's BoxArray for the current
// time on top of the shared level 0, so its cost follows the front's
// circumference, not the mesh. The only error source is an unknown
// distribution strategy, which New already rejects, so a validated
// Runner never fails here.
func (r *Runner) Regrid() error {
	cfg := r.Cfg
	r.BAs = []amr.BoxArray{r.ba0}
	r.DMs = []amr.DistributionMapping{r.dm0}
	for l := 0; l < cfg.MaxLevel; l++ {
		tags := r.annulusTags(l)
		if tags.Len() == 0 {
			break
		}
		ba := amr.MakeFineBoxArray(tags, r.Geoms[l].Domain, cfg.RefRatioAt(l),
			cfg.BlockingFactor, cfg.MaxGridSize, cfg.GridEff, 0)
		if l > 0 {
			ba = amr.EnforceNesting(ba, r.BAs[l], cfg.RefRatioAt(l))
		}
		if ba.Len() == 0 {
			break
		}
		dm, err := amr.Distribute(ba, cfg.NProcs, r.Opts.Dist)
		if err != nil {
			return err
		}
		r.BAs = append(r.BAs, ba)
		r.DMs = append(r.DMs, dm)
	}
	return nil
}

// annulusTags tags level-l cells within the front annulus. Tags are
// generated directly at blocking-factor granularity by walking the ring,
// so the cost scales with the front's circumference, not the mesh area.
func (r *Runner) annulusTags(l int) *amr.TagSet {
	g := r.Geoms[l]
	dx := g.CellSize[0]
	// The tag band: WidthCells cells behind and ahead of the front, with a
	// CFL-proportional widening (see Options.WidthCells).
	width := (r.Opts.WidthCells + 4*r.Cfg.CFL) * dx
	rad := r.Opts.Blast.ShockRadius(r.Time)
	rInner := rad - width
	if rInner < 0 {
		rInner = 0
	}
	rOuter := rad + width

	tags := amr.NewTagSet()
	dom := g.Domain
	cx, cy := r.Opts.Center[0], r.Opts.Center[1]
	addAt := func(x, y float64) {
		i := dom.Lo.X + int((x-g.ProbLo[0])/g.CellSize[0])
		j := dom.Lo.Y + int((y-g.ProbLo[1])/g.CellSize[1])
		p := grid.IV(i, j)
		if dom.Contains(p) {
			tags.Add(p)
		}
	}
	if rOuter <= float64(r.Cfg.BlockingFactor)*dx*2 {
		// Early times: the whole disk is a few cells; tag it directly.
		steps := int(rOuter/dx) + 2
		for jj := -steps; jj <= steps; jj++ {
			for ii := -steps; ii <= steps; ii++ {
				x, y := cx+float64(ii)*dx, cy+float64(jj)*dx
				d := math.Hypot(x-cx, y-cy)
				if d <= rOuter {
					addAt(x, y)
				}
			}
		}
		return tags
	}
	// Walk the annulus: radial step of half a cell, angular step matched
	// to the cell size at that radius.
	for rr := rInner; rr <= rOuter; rr += dx / 2 {
		if rr <= 0 {
			addAt(cx, cy)
			continue
		}
		dTheta := (dx / 2) / rr
		for th := 0.0; th < 2*math.Pi; th += dTheta {
			addAt(cx+rr*math.Cos(th), cy+rr*math.Sin(th))
		}
	}
	return tags
}

// ComputeDt models the CFL-limited step: the finest cell size over the
// front signal speed, with init_shrink and change_max damping applied the
// same way the real driver does.
func (r *Runner) ComputeDt() float64 {
	dxF := r.Geoms[len(r.Geoms)-1].CellSize[0]
	signal := r.Opts.SignalFactor * r.Opts.Blast.ShockSpeed(r.Time)
	dt := r.Cfg.CFL * dxF / signal
	if r.Step == 0 {
		dt *= r.Cfg.InitShrink
	} else if r.LastDt > 0 && dt > r.Cfg.ChangeMax*r.LastDt {
		dt = r.Cfg.ChangeMax * r.LastDt
	}
	if r.Cfg.StopTime > 0 && r.Time+dt > r.Cfg.StopTime {
		dt = r.Cfg.StopTime - r.Time
	}
	return dt
}

// Advance moves the front by one step.
func (r *Runner) Advance() {
	dt := r.ComputeDt()
	r.Time += dt
	r.LastDt = dt
	r.Step++
}

// ShouldPlot mirrors the solver's plot cadence.
func (r *Runner) ShouldPlot() bool { return driver.PlotStep(r.Cfg, r.Step) }

// Progress reports the step count and simulated time (driver.Model).
func (r *Runner) Progress() (int, float64) { return r.Step, r.Time }

// PlotSpec describes a size-only plotfile of the current hierarchy.
func (r *Runner) PlotSpec() plotfile.Spec {
	return plotfile.Spec{
		Root:     fmt.Sprintf("%s%05d", r.Cfg.PlotFile, r.Step),
		VarNames: sim.PlotVarNames,
		Time:     r.Time,
		Step:     r.Step,
		NProcs:   r.Cfg.NProcs,
		Levels:   r.levels(),
	}
}

// CheckpointSpec describes a size-only checkpoint of the current
// hierarchy: the conserved state's volume (hydro.NCons components)
// through the same N-to-N writer as plots, with no field memory —
// exactly how the solver's checkpoints price, at surrogate scale.
func (r *Runner) CheckpointSpec() plotfile.CheckpointSpec {
	return plotfile.CheckpointSpec{
		Root:     fmt.Sprintf("%s%05d", r.Cfg.CheckFile, r.Step),
		Time:     r.Time,
		Step:     r.Step,
		LastDt:   r.LastDt,
		NComp:    hydro.NCons,
		NProcs:   r.Cfg.NProcs,
		SizeOnly: true,
		Levels:   r.levels(),
	}
}

// levels is the hierarchy as data-free plotfile levels.
func (r *Runner) levels() []plotfile.LevelSpec {
	levels := make([]plotfile.LevelSpec, len(r.BAs))
	for l := range r.BAs {
		levels[l] = plotfile.LevelSpec{Geom: r.Geoms[l], BA: r.BAs[l], DM: r.DMs[l], RefRatio: r.Cfg.RefRatioAt(l)}
	}
	return levels
}

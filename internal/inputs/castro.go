package inputs

import (
	"errors"
	"fmt"
	"math"
)

// CastroInputs is the typed configuration for a Castro-like Sedov run. It
// covers the parameters the paper varies (Table I: amr.max_step,
// amr.n_cell, amr.max_level, amr.plot_int, castro.cfl) plus the structural
// parameters from the baseline configuration (Listing 2) that shape the
// mesh hierarchy and therefore the I/O: refinement ratios, regrid interval,
// blocking factor, max grid size, and the geometry.
type CastroInputs struct {
	// Time stepping.
	MaxStep    int     // amr.max_step
	StopTime   float64 // stop_time
	CFL        float64 // castro.cfl
	InitShrink float64 // castro.init_shrink
	ChangeMax  float64 // castro.change_max

	// Base grid and refinement.
	NCell          [2]int  // amr.n_cell
	MaxLevel       int     // amr.max_level (number of refined levels ABOVE level 0)
	RefRatio       []int   // amr.ref_ratio, one per coarse level
	RegridInt      int     // amr.regrid_int
	BlockingFactor int     // amr.blocking_factor
	MaxGridSize    int     // amr.max_grid_size
	GridEff        float64 // amr.grid_eff (clustering efficiency target)

	// Geometry (2D Cartesian).
	ProbLo [2]float64 // geometry.prob_lo
	ProbHi [2]float64 // geometry.prob_hi

	// Outputs.
	PlotInt   int    // amr.plot_int (steps between plotfiles; <=0 disables)
	PlotFile  string // amr.plot_file (root name)
	CheckInt  int    // amr.check_int
	CheckFile string // amr.check_file

	// Physics toggles from Listing 2 (hydro on, reactions off).
	DoHydro bool // castro.do_hydro

	// Parallel decomposition: number of simulated MPI tasks.
	NProcs int
}

// DefaultCastroInputs mirrors the paper's Listing 2 baseline.
func DefaultCastroInputs() CastroInputs {
	return CastroInputs{
		MaxStep:        500,
		StopTime:       0.1,
		CFL:            0.5,
		InitShrink:     0.01,
		ChangeMax:      1.1,
		NCell:          [2]int{32, 32},
		MaxLevel:       3,
		RefRatio:       []int{2, 2, 2, 2},
		RegridInt:      2,
		BlockingFactor: 8,
		MaxGridSize:    256,
		GridEff:        0.7,
		ProbLo:         [2]float64{0, 0},
		ProbHi:         [2]float64{1, 1},
		PlotInt:        20,
		PlotFile:       "sedov_2d_cyl_in_cart_plt",
		CheckInt:       20,
		CheckFile:      "sedov_2d_cyl_in_cart_chk",
		DoHydro:        true,
		NProcs:         1,
	}
}

// FromFile overlays the values present in f onto the Listing-2 defaults
// and validates the result.
func FromFile(f *File) (CastroInputs, error) {
	c := DefaultCastroInputs()
	var err error
	if c.MaxStep, err = f.Int("max_step", c.MaxStep); err != nil {
		return c, err
	}
	// amr.max_step (Table I spelling) overrides the bare max_step if present.
	if f.Has("amr.max_step") {
		if c.MaxStep, err = f.Int("amr.max_step", c.MaxStep); err != nil {
			return c, err
		}
	}
	if c.StopTime, err = f.Float("stop_time", c.StopTime); err != nil {
		return c, err
	}
	if c.CFL, err = f.Float("castro.cfl", c.CFL); err != nil {
		return c, err
	}
	if c.InitShrink, err = f.Float("castro.init_shrink", c.InitShrink); err != nil {
		return c, err
	}
	if c.ChangeMax, err = f.Float("castro.change_max", c.ChangeMax); err != nil {
		return c, err
	}
	nc, err := f.Ints("amr.n_cell", c.NCell[:])
	if err != nil {
		return c, err
	}
	if len(nc) < 2 {
		return c, fmt.Errorf("inputs: amr.n_cell needs 2 values, got %d", len(nc))
	}
	c.NCell = [2]int{nc[0], nc[1]}
	if c.MaxLevel, err = f.Int("amr.max_level", c.MaxLevel); err != nil {
		return c, err
	}
	if c.RefRatio, err = f.Ints("amr.ref_ratio", c.RefRatio); err != nil {
		return c, err
	}
	if c.RegridInt, err = f.Int("amr.regrid_int", c.RegridInt); err != nil {
		return c, err
	}
	if c.BlockingFactor, err = f.Int("amr.blocking_factor", c.BlockingFactor); err != nil {
		return c, err
	}
	if c.MaxGridSize, err = f.Int("amr.max_grid_size", c.MaxGridSize); err != nil {
		return c, err
	}
	if c.GridEff, err = f.Float("amr.grid_eff", c.GridEff); err != nil {
		return c, err
	}
	pl, err := f.Floats("geometry.prob_lo", c.ProbLo[:])
	if err != nil {
		return c, err
	}
	ph, err := f.Floats("geometry.prob_hi", c.ProbHi[:])
	if err != nil {
		return c, err
	}
	if len(pl) < 2 || len(ph) < 2 {
		return c, errors.New("inputs: geometry.prob_lo/hi need 2 values")
	}
	c.ProbLo = [2]float64{pl[0], pl[1]}
	c.ProbHi = [2]float64{ph[0], ph[1]}
	if c.PlotInt, err = f.Int("amr.plot_int", c.PlotInt); err != nil {
		return c, err
	}
	c.PlotFile = f.String("amr.plot_file", c.PlotFile)
	if c.CheckInt, err = f.Int("amr.check_int", c.CheckInt); err != nil {
		return c, err
	}
	c.CheckFile = f.String("amr.check_file", c.CheckFile)
	doHydro, err := f.Int("castro.do_hydro", 1)
	if err != nil {
		return c, err
	}
	c.DoHydro = doHydro != 0
	if c.NProcs, err = f.Int("nprocs", c.NProcs); err != nil {
		return c, err
	}
	return c, c.Validate()
}

// LoadCastro parses and validates a Castro inputs file from disk.
func LoadCastro(path string) (CastroInputs, error) {
	f, err := Load(path)
	if err != nil {
		return CastroInputs{}, err
	}
	return FromFile(f)
}

// Validate checks structural invariants the AMR machinery relies on.
func (c CastroInputs) Validate() error {
	if c.NCell[0] <= 0 || c.NCell[1] <= 0 {
		return fmt.Errorf("inputs: amr.n_cell must be positive, got %v", c.NCell)
	}
	if c.MaxLevel < 0 {
		return fmt.Errorf("inputs: amr.max_level must be >= 0, got %d", c.MaxLevel)
	}
	if c.MaxStep < 0 {
		return fmt.Errorf("inputs: amr.max_step must be >= 0, got %d", c.MaxStep)
	}
	if !(c.CFL > 0 && c.CFL < 1) {
		return fmt.Errorf("inputs: castro.cfl must be in (0,1), got %g", c.CFL)
	}
	if !(c.InitShrink > 0 && c.InitShrink <= 1) {
		return fmt.Errorf("inputs: castro.init_shrink must be in (0,1], got %g", c.InitShrink)
	}
	if !(c.ChangeMax >= 1) || math.IsInf(c.ChangeMax, 1) {
		return fmt.Errorf("inputs: castro.change_max must be finite and >= 1, got %g", c.ChangeMax)
	}
	if math.IsNaN(c.StopTime) || math.IsInf(c.StopTime, 0) {
		return fmt.Errorf("inputs: stop_time must be finite, got %g", c.StopTime)
	}
	if c.BlockingFactor < 1 {
		return fmt.Errorf("inputs: amr.blocking_factor must be >= 1, got %d", c.BlockingFactor)
	}
	if c.MaxGridSize < c.BlockingFactor {
		return fmt.Errorf("inputs: amr.max_grid_size %d < blocking_factor %d", c.MaxGridSize, c.BlockingFactor)
	}
	if c.MaxGridSize%c.BlockingFactor != 0 {
		return fmt.Errorf("inputs: amr.max_grid_size %d not a multiple of blocking_factor %d", c.MaxGridSize, c.BlockingFactor)
	}
	for l := 0; l < c.MaxLevel; l++ {
		r := c.RefRatioAt(l)
		if r != 2 && r != 4 {
			return fmt.Errorf("inputs: ref_ratio[%d]=%d, only 2 and 4 supported", l, r)
		}
	}
	if c.NProcs < 1 {
		return fmt.Errorf("inputs: nprocs must be >= 1, got %d", c.NProcs)
	}
	// A finite positive width also rules out non-finite bounds.
	for d := 0; d < 2; d++ {
		if w := c.ProbHi[d] - c.ProbLo[d]; !(w > 0 && w <= math.MaxFloat64) {
			return fmt.Errorf("inputs: geometry.prob_hi must exceed prob_lo by a finite width, got %v %v", c.ProbLo, c.ProbHi)
		}
	}
	if !(c.GridEff > 0 && c.GridEff <= 1) {
		return fmt.Errorf("inputs: amr.grid_eff must be in (0,1], got %g", c.GridEff)
	}
	return nil
}

// ClampDt applies Castro's step controls to an engine's stable step dt
// for the step after step (at time, after a step of lastDt): init_shrink
// scales the first step, change_max caps the growth of every later one,
// and no step overshoots a positive stop_time.
func (c CastroInputs) ClampDt(dt float64, step int, time, lastDt float64) float64 {
	if step == 0 {
		dt *= c.InitShrink
	} else if lastDt > 0 && dt > c.ChangeMax*lastDt {
		dt = c.ChangeMax * lastDt
	}
	if c.StopTime > 0 && time+dt > c.StopTime {
		dt = c.StopTime - time
	}
	return dt
}

// RefRatioAt returns the refinement ratio between level l and l+1,
// defaulting to the last specified ratio (AMReX behavior) or 2.
func (c CastroInputs) RefRatioAt(l int) int {
	if len(c.RefRatio) == 0 {
		return 2
	}
	if l < len(c.RefRatio) {
		return c.RefRatio[l]
	}
	return c.RefRatio[len(c.RefRatio)-1]
}

// ToFile serializes the typed config back to the Listing-2 key set.
func (c CastroInputs) ToFile() *File {
	f := NewFile()
	f.SetInt("max_step", c.MaxStep)
	f.SetFloat("stop_time", c.StopTime)
	f.SetFloat("geometry.prob_lo", c.ProbLo[0], c.ProbLo[1])
	f.SetFloat("geometry.prob_hi", c.ProbHi[0], c.ProbHi[1])
	f.SetInt("amr.n_cell", c.NCell[0], c.NCell[1])
	f.SetFloat("castro.cfl", c.CFL)
	f.SetFloat("castro.init_shrink", c.InitShrink)
	f.SetFloat("castro.change_max", c.ChangeMax)
	if c.DoHydro {
		f.SetInt("castro.do_hydro", 1)
	} else {
		f.SetInt("castro.do_hydro", 0)
	}
	f.SetInt("amr.max_level", c.MaxLevel)
	f.SetInt("amr.ref_ratio", c.RefRatio...)
	f.SetInt("amr.regrid_int", c.RegridInt)
	f.SetInt("amr.blocking_factor", c.BlockingFactor)
	f.SetInt("amr.max_grid_size", c.MaxGridSize)
	f.SetFloat("amr.grid_eff", c.GridEff)
	f.Set("amr.check_file", c.CheckFile)
	f.SetInt("amr.check_int", c.CheckInt)
	f.Set("amr.plot_file", c.PlotFile)
	f.SetInt("amr.plot_int", c.PlotInt)
	f.SetInt("nprocs", c.NProcs)
	return f
}

package inputs

import (
	"math"
	"strings"
	"testing"
)

// listing2 is the paper's Appendix B configuration file, verbatim in
// structure (comments, blank lines, namespaced keys, multi-value keys).
const listing2 = `
# INPUTS TO MAIN PROGRAM
max_step = 500
stop_time = 0.1

# PROBLEM SIZE & GEOMETRY
geometry.is_periodic = 0 0
geometry.coord_sys = 0  # 0 => cart
geometry.prob_lo = 0 0
geometry.prob_hi = 1 1
amr.n_cell = 32 32

# BC FLAGS
castro.lo_bc = 2 2
castro.hi_bc = 2 2

# WHICH PHYSICS
castro.do_hydro = 1
castro.do_react = 0

# TIME STEP CONTROL
castro.cfl = 0.5
castro.init_shrink = 0.01
castro.change_max = 1.1

# DIAGNOSTICS & VERBOSITY
castro.sum_interval = 1
castro.v = 1
amr.v = 1

# REFINEMENT / REGRIDDING
amr.max_level = 3
amr.ref_ratio = 2 2 2 2
amr.regrid_int = 2
amr.blocking_factor = 8
amr.max_grid_size = 256

# CHECKPOINT FILES
amr.check_file = sedov_2d_cyl_in_cart_chk
amr.check_int = 20

# PLOTFILES
amr.plot_file = sedov_2d_cyl_in_cart_plt
amr.plot_int = 20
amr.derive_plot_vars = ALL
`

func TestParseListing2(t *testing.T) {
	f, err := ParseString(listing2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Int("max_step", 0); got != 500 {
		t.Errorf("max_step = %d", got)
	}
	if got, _ := f.Float("castro.cfl", 0); got != 0.5 {
		t.Errorf("cfl = %g", got)
	}
	nc, _ := f.Ints("amr.n_cell", nil)
	if len(nc) != 2 || nc[0] != 32 || nc[1] != 32 {
		t.Errorf("n_cell = %v", nc)
	}
	rr, _ := f.Ints("amr.ref_ratio", nil)
	if len(rr) != 4 {
		t.Errorf("ref_ratio = %v", rr)
	}
	if got := f.String("amr.plot_file", ""); got != "sedov_2d_cyl_in_cart_plt" {
		t.Errorf("plot_file = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseString("novalue\n"); err == nil {
		t.Error("missing '=' accepted")
	}
	if _, err := ParseString("= 3\n"); err == nil {
		t.Error("empty key accepted")
	}
	f, err := ParseString("x = notanint\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Int("x", 0); err == nil {
		t.Error("non-integer Int accepted")
	}
	if _, err := f.Float("x", 0); err == nil {
		t.Error("non-float Float accepted")
	}
}

func TestDefaultsWhenAbsent(t *testing.T) {
	f := NewFile()
	if v, err := f.Int("missing", 42); err != nil || v != 42 {
		t.Errorf("Int default = %d, %v", v, err)
	}
	if v, err := f.Float("missing", 2.5); err != nil || v != 2.5 {
		t.Errorf("Float default = %g, %v", v, err)
	}
	if v := f.String("missing", "d"); v != "d" {
		t.Errorf("String default = %q", v)
	}
	if v, err := f.Ints("missing", []int{1, 2}); err != nil || len(v) != 2 {
		t.Errorf("Ints default = %v, %v", v, err)
	}
}

func TestLastAssignmentWins(t *testing.T) {
	f, err := ParseString("a = 1\na = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Int("a", 0); v != 2 {
		t.Errorf("a = %d, want 2", v)
	}
	if keys := f.Keys(); len(keys) != 1 {
		t.Errorf("keys = %v", keys)
	}
}

func TestRoundTrip(t *testing.T) {
	f, _ := ParseString(listing2)
	encoded := f.Encode()
	f2, err := ParseString(encoded)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range f.Keys() {
		a := f.values[k]
		b, ok := f2.values[k]
		if !ok {
			t.Errorf("key %q lost in round trip", k)
			continue
		}
		if strings.Join(a, " ") != strings.Join(b, " ") {
			t.Errorf("key %q: %v != %v", k, a, b)
		}
	}
}

func TestFromFileListing2(t *testing.T) {
	f, _ := ParseString(listing2)
	c, err := FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxStep != 500 || c.CFL != 0.5 || c.MaxLevel != 3 {
		t.Errorf("basic params wrong: %+v", c)
	}
	if c.NCell != [2]int{32, 32} {
		t.Errorf("NCell = %v", c.NCell)
	}
	if c.PlotInt != 20 || c.PlotFile != "sedov_2d_cyl_in_cart_plt" {
		t.Errorf("plot params wrong: %d %q", c.PlotInt, c.PlotFile)
	}
	if c.BlockingFactor != 8 || c.MaxGridSize != 256 || c.RegridInt != 2 {
		t.Errorf("grid params wrong: %+v", c)
	}
	if !c.DoHydro {
		t.Error("DoHydro should be true")
	}
}

func TestAmrMaxStepOverride(t *testing.T) {
	f, _ := ParseString("amr.max_step = 77\n")
	c, err := FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxStep != 77 {
		t.Errorf("MaxStep = %d", c.MaxStep)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mk := func(mut func(*CastroInputs)) error {
		c := DefaultCastroInputs()
		mut(&c)
		return c.Validate()
	}
	cases := []struct {
		name string
		mut  func(*CastroInputs)
	}{
		{"zero cells", func(c *CastroInputs) { c.NCell[0] = 0 }},
		{"negative level", func(c *CastroInputs) { c.MaxLevel = -1 }},
		{"cfl too big", func(c *CastroInputs) { c.CFL = 1.5 }},
		{"cfl zero", func(c *CastroInputs) { c.CFL = 0 }},
		{"cfl NaN", func(c *CastroInputs) { c.CFL = math.NaN() }},
		{"blocking zero", func(c *CastroInputs) { c.BlockingFactor = 0 }},
		{"maxgrid < blocking", func(c *CastroInputs) { c.MaxGridSize = 4; c.BlockingFactor = 8 }},
		{"maxgrid unaligned", func(c *CastroInputs) { c.MaxGridSize = 100; c.BlockingFactor = 8 }},
		{"n_cell x off blocking grid", func(c *CastroInputs) { c.NCell = [2]int{36, 32} }},
		{"n_cell y off blocking grid", func(c *CastroInputs) { c.NCell = [2]int{32, 5} }},
		{"bad ref ratio", func(c *CastroInputs) { c.RefRatio = []int{3} }},
		{"zero procs", func(c *CastroInputs) { c.NProcs = 0 }},
		{"inverted geometry", func(c *CastroInputs) { c.ProbHi[0] = -1 }},
		{"bad grid_eff", func(c *CastroInputs) { c.GridEff = 0 }},
		{"negative max_step", func(c *CastroInputs) { c.MaxStep = -5 }},
		{"init_shrink NaN", func(c *CastroInputs) { c.InitShrink = math.NaN() }},
		{"init_shrink zero", func(c *CastroInputs) { c.InitShrink = 0 }},
		{"init_shrink above 1", func(c *CastroInputs) { c.InitShrink = 1.5 }},
		{"change_max negative", func(c *CastroInputs) { c.ChangeMax = -1 }},
		{"change_max below 1", func(c *CastroInputs) { c.ChangeMax = 0.5 }},
		{"change_max NaN", func(c *CastroInputs) { c.ChangeMax = math.NaN() }},
		{"change_max Inf", func(c *CastroInputs) { c.ChangeMax = math.Inf(1) }},
		{"stop_time NaN", func(c *CastroInputs) { c.StopTime = math.NaN() }},
		{"stop_time Inf", func(c *CastroInputs) { c.StopTime = math.Inf(1) }},
		{"grid_eff NaN", func(c *CastroInputs) { c.GridEff = math.NaN() }},
		{"prob_hi NaN", func(c *CastroInputs) { c.ProbHi[0] = math.NaN() }},
		{"prob_hi Inf", func(c *CastroInputs) { c.ProbHi[1] = math.Inf(1) }},
		{"prob_lo -Inf", func(c *CastroInputs) { c.ProbLo[0] = math.Inf(-1) }},
	}
	for _, tc := range cases {
		if err := mk(tc.mut); err == nil {
			t.Errorf("%s: validation passed unexpectedly", tc.name)
		}
	}
	if err := DefaultCastroInputs().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestRefRatioAt(t *testing.T) {
	c := DefaultCastroInputs()
	c.RefRatio = []int{2, 4}
	if c.RefRatioAt(0) != 2 || c.RefRatioAt(1) != 4 {
		t.Error("explicit ratios wrong")
	}
	if c.RefRatioAt(5) != 4 {
		t.Error("ratio beyond list should repeat last")
	}
	c.RefRatio = nil
	if c.RefRatioAt(0) != 2 {
		t.Error("empty ratio list should default to 2")
	}
}

func TestCastroToFileRoundTrip(t *testing.T) {
	c := DefaultCastroInputs()
	c.NCell = [2]int{512, 512}
	c.CFL = 0.4
	c.MaxLevel = 3
	c.NProcs = 32
	f := c.ToFile()
	c2, err := FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NCell != c.NCell || c2.CFL != c.CFL || c2.MaxLevel != c.MaxLevel || c2.NProcs != c.NProcs {
		t.Errorf("round trip mismatch: %+v vs %+v", c, c2)
	}
	if c2.PlotInt != c.PlotInt || c2.MaxGridSize != c.MaxGridSize {
		t.Errorf("round trip mismatch: %+v vs %+v", c, c2)
	}
}

func TestTrailingCommentAndWhitespace(t *testing.T) {
	f, err := ParseString("  amr.plot_int   =  20   # every 20 steps\n\n#full comment line\n")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Int("amr.plot_int", 0); v != 20 {
		t.Errorf("plot_int = %d", v)
	}
	if len(f.Keys()) != 1 {
		t.Errorf("keys = %v", f.Keys())
	}
}

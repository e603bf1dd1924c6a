package sim

import (
	"context"
	"math"
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/hydro"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
)

// smallCfg returns a fast configuration for tests.
func smallCfg() inputs.CastroInputs {
	c := inputs.DefaultCastroInputs()
	c.NCell = [2]int{32, 32}
	c.MaxLevel = 2
	c.MaxStep = 10
	c.PlotInt = 5
	c.RegridInt = 2
	c.MaxGridSize = 16
	c.BlockingFactor = 8
	c.NProcs = 4
	c.StopTime = 1.0 // effectively unlimited for 10 steps
	return c
}

func modelFS() *iosim.FileSystem {
	cfg := iosim.DefaultConfig()
	cfg.JitterSigma = 0
	return iosim.New(cfg, "")
}

func TestNewBuildsRefinedHierarchy(t *testing.T) {
	s, err := New(smallCfg(), DefaultOptions(), modelFS())
	if err != nil {
		t.Fatal(err)
	}
	if s.FinestLevel() < 1 {
		t.Fatalf("expected refinement around the blast, finest = %d", s.FinestLevel())
	}
	// Fine levels must be properly nested and within their domains.
	for l := 1; l < len(s.Levels); l++ {
		fineDom := s.Levels[l].Geom.Domain
		for _, b := range s.Levels[l].BA.Boxes {
			if !fineDom.ContainsBox(b) {
				t.Errorf("level %d box %v outside domain %v", l, b, fineDom)
			}
		}
		ratio := s.Cfg.RefRatioAt(l - 1)
		for _, b := range s.Levels[l].BA.Boxes {
			if !s.Levels[l-1].BA.ContainsBox(b.Coarsen(ratio)) {
				t.Errorf("level %d box %v not nested in level %d", l, b, l-1)
			}
		}
		if !s.Levels[l].BA.IsDisjoint() {
			t.Errorf("level %d boxes overlap", l)
		}
	}
	// The refined region must cover the blast center.
	center := grid.IV(s.Cfg.NCell[0]/2*2, s.Cfg.NCell[1]/2*2) // level-1 index space
	_ = center
	l1 := s.Levels[1]
	found := false
	cx := int(0.5 / l1.Geom.CellSize[0])
	for _, b := range l1.BA.Boxes {
		if b.Contains(grid.IV(cx, cx)) {
			found = true
			break
		}
	}
	if !found {
		t.Error("level 1 does not cover the blast center")
	}
}

func TestComputeDtInitShrinkAndChangeMax(t *testing.T) {
	cfg := smallCfg()
	cfg.InitShrink = 0.01
	cfg.ChangeMax = 1.1
	s, err := New(cfg, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dt0 := s.ComputeDt()
	// First step is shrunk by init_shrink; undoing it gives the CFL dt.
	s.Advance()
	dt1 := s.ComputeDt()
	if dt1 > 1.1*s.LastDt*(1+1e-12) {
		t.Errorf("dt growth %g exceeds change_max * last (%g)", dt1, 1.1*s.LastDt)
	}
	if dt0 >= dt1 {
		t.Errorf("init_shrink did not reduce first dt: dt0=%g dt1=%g", dt0, dt1)
	}
}

func TestAdvanceConservesMassGlobally(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxLevel = 1 // keep runtime small
	s, err := New(cfg, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mass0 := hydro.TotalMass(s.Levels[0].State, s.Levels[0].Geom)
	for i := 0; i < 5; i++ {
		s.Advance()
	}
	// With refluxing on (the default) the composite mass — level-0 after
	// average-down — is conserved to machine precision while the blast
	// stays in the interior. Regridding between steps can move small
	// amounts through interpolation, so this test runs without regrids.
	mass1 := hydro.TotalMass(s.Levels[0].State, s.Levels[0].Geom)
	if rel := math.Abs(mass1-mass0) / mass0; rel > 1e-11 {
		t.Errorf("mass drift = %g", rel)
	}
	if s.Time <= 0 || s.Step != 5 {
		t.Errorf("time/step = %g/%d", s.Time, s.Step)
	}
}

func TestBlastExpandsAndLevelsTrackIt(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxStep = 30
	cfg.PlotInt = 0 // no plotting
	s, err := New(cfg, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cells0 := s.Levels[1].BA.NumPts()
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Step != 30 {
		t.Fatalf("step = %d", s.Step)
	}
	cells1 := s.Levels[1].BA.NumPts()
	if cells1 <= cells0 {
		t.Errorf("refined region did not grow with the blast: %d -> %d", cells0, cells1)
	}
	// The flow is still spinning up after 30 steps (init_shrink = 0.01
	// damps the first dt by 100x and change_max releases it slowly), so
	// require a developing outward flow rather than the asymptotic
	// post-shock Mach ~1.9.
	lev := s.Levels[s.FinestLevel()]
	plot := derivePlotData(lev)
	if m := plot.Max(7); m < 0.3 {
		t.Errorf("peak Mach = %g, expected a developing outward flow", m)
	}
	// Pressure far above ambient confirms the blast is live.
	if p := plot.Max(4); p < 100*1e-5 {
		t.Errorf("peak pressure = %g, blast missing", p)
	}
}

func TestRunPlotCount(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxStep = 10
	cfg.PlotInt = 5
	fs := modelFS()
	s, err := New(cfg, DefaultOptions(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Plots at steps 0, 5, 10.
	if s.NPlots() != 3 {
		t.Errorf("plots = %d, want 3", s.NPlots())
	}
	steps := map[int]bool{}
	for _, r := range s.Records() {
		steps[r.Step] = true
	}
	for _, want := range []int{0, 5, 10} {
		if !steps[want] {
			t.Errorf("no records for plot step %d", want)
		}
	}
	if fs.TotalBytes() == 0 {
		t.Error("no bytes written")
	}
}

func TestRecordsHaveEq2Structure(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxStep = 4
	cfg.PlotInt = 2
	cfg.NProcs = 4
	s, err := New(cfg, DefaultOptions(), modelFS())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	levels := map[int]bool{}
	ranks := map[int]bool{}
	for _, r := range recs {
		if r.Bytes <= 0 {
			t.Errorf("non-positive bytes in %+v", r)
		}
		levels[r.Level] = true
		ranks[r.Rank] = true
		if r.Rank < 0 || r.Rank >= 4 {
			t.Errorf("rank out of range: %+v", r)
		}
	}
	if !levels[0] || len(levels) < 2 {
		t.Errorf("levels seen = %v", levels)
	}
	if len(ranks) < 2 {
		t.Errorf("ranks seen = %v (want several tasks writing)", ranks)
	}
}

func TestL0BytesConstantAcrossSteps(t *testing.T) {
	// The paper's Fig. 7: L0 output is essentially constant because it is
	// a function of the user-input cell count only.
	cfg := smallCfg()
	cfg.MaxStep = 6
	cfg.PlotInt = 3
	s, err := New(cfg, DefaultOptions(), modelFS())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	perStepL0 := map[int]int64{}
	for _, r := range s.Records() {
		if r.Level == 0 {
			perStepL0[r.Step] += r.Bytes
		}
	}
	var first int64 = -1
	for _, b := range perStepL0 {
		if first < 0 {
			first = b
		} else if b != first {
			t.Errorf("L0 bytes vary across steps: %v", perStepL0)
			break
		}
	}
}

func TestRegridPreservesCoverage(t *testing.T) {
	cfg := smallCfg()
	s, err := New(cfg, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Advance()
	}
	if err := s.Regrid(); err != nil {
		t.Fatal(err)
	}
	// After regrid, high-gradient cells on level 0 must be covered by
	// level 1 (up to the clustering efficiency slack).
	s.fillPatchLevel(0)
	if s.FinestLevel() < 1 {
		t.Fatal("refinement vanished")
	}
	// All fine boxes nested and disjoint.
	for l := 1; l < len(s.Levels); l++ {
		if !s.Levels[l].BA.IsDisjoint() {
			t.Errorf("level %d overlaps after regrid", l)
		}
		ratio := s.Cfg.RefRatioAt(l - 1)
		for _, b := range s.Levels[l].BA.Boxes {
			if !s.Levels[l-1].BA.ContainsBox(b.Coarsen(ratio)) {
				t.Errorf("level %d box %v not nested after regrid", l, b)
			}
		}
	}
}

func TestStopTimeHonored(t *testing.T) {
	cfg := smallCfg()
	cfg.StopTime = 1e-6 // tiny: only a couple of steps possible
	cfg.MaxStep = 1000
	cfg.PlotInt = 0
	s, err := New(cfg, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Time > cfg.StopTime+1e-15 {
		t.Errorf("time %g exceeded stop_time %g", s.Time, cfg.StopTime)
	}
	if s.Step >= 1000 {
		t.Error("run did not stop on stop_time")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := smallCfg()
	cfg.CFL = 2.0
	if _, err := New(cfg, DefaultOptions(), nil); err == nil {
		t.Error("invalid CFL accepted")
	}
}

func TestMaxLevelZeroRuns(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxLevel = 0
	cfg.MaxStep = 3
	cfg.PlotInt = 1
	s, err := New(cfg, DefaultOptions(), modelFS())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.FinestLevel() != 0 {
		t.Errorf("finest = %d", s.FinestLevel())
	}
	if s.NPlots() != 4 {
		t.Errorf("plots = %d, want 4", s.NPlots())
	}
}

func TestHigherCFLProducesFewerOutputEventsPerTime(t *testing.T) {
	// Higher CFL -> larger dt -> the blast reaches a given physical time
	// in fewer steps; with plot_int fixed this changes output cadence —
	// the mechanism behind the paper's Fig. 6 CFL sensitivity.
	run := func(cfl float64) (float64, int) {
		cfg := smallCfg()
		cfg.CFL = cfl
		cfg.MaxLevel = 1
		cfg.MaxStep = 20
		cfg.PlotInt = 0
		s, err := New(cfg, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s.Time, s.Step
	}
	t3, _ := run(0.3)
	t6, _ := run(0.6)
	if t6 <= t3 {
		t.Errorf("cfl 0.6 reached t=%g, cfl 0.3 reached t=%g; expected further progress", t6, t3)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := DefaultOptions()
	if o.Dist != amr.DistKnapsack || !o.Reflux {
		t.Errorf("bad defaults: %+v", o)
	}
	if len(PlotVarNames) != 10 {
		t.Errorf("PlotVarNames = %d entries", len(PlotVarNames))
	}
}

// TestStepSecondsSeparatesBursts: Options.StepSeconds advances every
// rank's filesystem clock between steps, so plot bursts are separated by
// compute gaps (the window an asynchronous storage drain overlaps);
// zero keeps the historical back-to-back clocks.
func TestStepSecondsSeparatesBursts(t *testing.T) {
	run := func(stepSeconds float64) *iosim.FileSystem {
		cfg := smallCfg()
		cfg.MaxStep = 4
		cfg.PlotInt = 2
		fs := modelFS()
		opts := DefaultOptions()
		opts.StepSeconds = stepSeconds
		s, err := New(cfg, opts, fs)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return fs
	}

	plain := run(0)
	gapped := run(2.5)
	// 4 steps of compute time land on every rank's clock.
	for r := 0; r < 4; r++ {
		if diff := gapped.Clock(r) - plain.Clock(r); math.Abs(diff-4*2.5) > 1e-9 {
			t.Errorf("rank %d clock gained %g, want 10", r, diff)
		}
	}
	// The gaps appear between bursts: each burst's earliest start moves
	// later by the accumulated compute time.
	firstStart := func(fs *iosim.FileSystem, step int) float64 {
		first := math.Inf(1)
		for _, r := range fs.Ledger() {
			if r.Labels.Step == step && r.Start < first {
				first = r.Start
			}
		}
		return first
	}
	if d := firstStart(gapped, 2) - firstStart(plain, 2); math.Abs(d-2*2.5) > 1e-9 {
		t.Errorf("step-2 burst shifted by %g, want 5", d)
	}
	if d := firstStart(gapped, 4) - firstStart(plain, 4); math.Abs(d-4*2.5) > 1e-9 {
		t.Errorf("step-4 burst shifted by %g, want 10", d)
	}
}

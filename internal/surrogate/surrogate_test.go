package surrogate

import (
	"context"
	"testing"

	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
)

func cfg(n, maxLevel, nprocs int) inputs.CastroInputs {
	c := inputs.DefaultCastroInputs()
	c.NCell = [2]int{n, n}
	c.MaxLevel = maxLevel
	c.MaxStep = 20
	c.PlotInt = 5
	c.RegridInt = 2
	c.MaxGridSize = 64
	c.BlockingFactor = 8
	c.NProcs = nprocs
	c.StopTime = 10
	return c
}

func modelFS() *iosim.FileSystem {
	c := iosim.DefaultConfig()
	c.JitterSigma = 0
	return iosim.New(c, "")
}

func TestNewBuildsNestedHierarchy(t *testing.T) {
	r, err := New(cfg(128, 2, 8), DefaultOptions(), modelFS())
	if err != nil {
		t.Fatal(err)
	}
	if finest := len(r.BAs) - 1; finest < 1 {
		t.Fatalf("no refinement at start, finest = %d", finest)
	}
	for l := 1; l < len(r.BAs); l++ {
		if !r.BAs[l].IsDisjoint() {
			t.Errorf("level %d overlaps", l)
		}
		ratio := r.Cfg.RefRatioAt(l - 1)
		for _, b := range r.BAs[l].Boxes {
			if !r.BAs[l-1].ContainsBox(b.Coarsen(ratio)) {
				t.Errorf("level %d box %v not nested", l, b)
			}
			if !r.Geoms[l].Domain.ContainsBox(b) {
				t.Errorf("level %d box %v outside domain", l, b)
			}
		}
	}
}

func TestFrontGrowsRefinedRegion(t *testing.T) {
	r, err := New(cfg(128, 2, 4), DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cells0 := r.BAs[1].NumPts()
	// init_shrink=0.01 with change_max=1.1 means dt ramps up over ~60
	// steps before the front moves appreciably, mirroring the solver.
	for i := 0; i < 120; i++ {
		r.Advance()
	}
	r.Regrid()
	cells1 := r.BAs[1].NumPts()
	if cells1 <= cells0 {
		t.Errorf("refined cells did not grow: %d -> %d", cells0, cells1)
	}
}

func TestRunProducesPlots(t *testing.T) {
	fs := modelFS()
	r, err := New(cfg(128, 2, 4), DefaultOptions(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.NPlots() != 5 { // steps 0,5,10,15,20
		t.Errorf("plots = %d, want 5", r.NPlots())
	}
	if len(r.Records()) == 0 || fs.TotalBytes() == 0 {
		t.Error("no output recorded")
	}
	// Per-level records exist for level 0 and at least one refined level.
	levels := map[int]bool{}
	for _, rec := range r.Records() {
		levels[rec.Level] = true
	}
	if !levels[0] || !levels[1] {
		t.Errorf("levels in records = %v", levels)
	}
}

func TestL0BytesMatchCellCount(t *testing.T) {
	fs := modelFS()
	c := cfg(128, 0, 2)
	c.PlotInt = 10
	r, err := New(c, DefaultOptions(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var l0 int64
	for _, rec := range r.Records() {
		if rec.Step == 0 && rec.Level == 0 {
			l0 += rec.Bytes
		}
	}
	raw := int64(128*128) * 10 * 8 // cells * plotvars * sizeof(double)
	if l0 < raw || l0 > raw+raw/100 {
		t.Errorf("L0 bytes = %d, want ~%d (+headers)", l0, raw)
	}
}

func TestSummitScaleMetadataOnly(t *testing.T) {
	// The headline scale: 131072^2 L0 (~17B cells) on 1024 ranks. Only
	// box metadata is manipulated; a single plot models ~1.4 TB of output
	// and must complete without allocating any field data.
	if testing.Short() {
		t.Skip("summit-scale surrogate skipped in -short")
	}
	fs := modelFS()
	c := cfg(131072, 0, 1024)
	c.MaxGridSize = 1024 // 16384 L0 boxes
	r, err := New(c, DefaultOptions(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WritePlot(); err != nil {
		t.Fatal(err)
	}
	total := fs.TotalBytes()
	if total < 1.37e12 {
		t.Errorf("modeled bytes = %d, want > 1.37 TB (17B cells x 10 vars x 8 B)", total)
	}
	byRank := iosim.BytesByRank(fs.Ledger())
	if len(byRank) < 1024 {
		t.Errorf("ranks writing = %d, want 1024 (+1 metadata)", len(byRank))
	}
}

func TestSummitScaleSinglePlot(t *testing.T) {
	fs := modelFS()
	c := cfg(32768, 1, 256)
	c.MaxGridSize = 512
	c.PlotInt = 1
	r, err := New(c, DefaultOptions(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WritePlot(); err != nil {
		t.Fatal(err)
	}
	// L0 alone: 32768^2 cells * 10 vars * 8 B ≈ 86 GB modeled.
	total := fs.TotalBytes()
	if total < 85e9 {
		t.Errorf("modeled bytes = %d, want > 85 GB", total)
	}
	// Many ranks participate.
	byRank := iosim.BytesByRank(fs.Ledger())
	if len(byRank) < 200 {
		t.Errorf("only %d ranks wrote", len(byRank))
	}
}

func TestDtDampingMirrorsDriver(t *testing.T) {
	r, err := New(cfg(128, 1, 2), DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dt0 := r.ComputeDt()
	r.Advance()
	dt1 := r.ComputeDt()
	if dt1 > r.Cfg.ChangeMax*r.LastDt*(1+1e-12) {
		t.Errorf("dt growth %g exceeds change_max bound", dt1)
	}
	if dt0 >= dt1 {
		t.Errorf("init_shrink not applied: dt0=%g dt1=%g", dt0, dt1)
	}
}

func TestHigherCFLWidensBand(t *testing.T) {
	// The surrogate's cfl-dependent tag band: higher cfl -> more refined
	// cells (the mechanism for the paper's Fig. 6 sensitivity).
	run := func(cfl float64) int64 {
		c := cfg(256, 1, 4)
		c.CFL = cfl
		r, err := New(c, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			r.Advance()
		}
		r.Regrid()
		return r.BAs[1].NumPts()
	}
	low, high := run(0.3), run(0.6)
	if high <= low {
		t.Errorf("cfl 0.6 cells (%d) <= cfl 0.3 cells (%d)", high, low)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	c := cfg(128, 1, 2)
	c.NProcs = 0
	if _, err := New(c, DefaultOptions(), nil); err == nil {
		t.Error("invalid config accepted")
	}
}

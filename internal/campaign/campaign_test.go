package campaign

import (
	"os"
	"path/filepath"
	"testing"

	"amrproxyio/internal/iosim"
)

func modelFS() *iosim.FileSystem {
	c := iosim.DefaultConfig()
	c.JitterSigma = 0
	return iosim.New(c, "")
}

func TestPaperCampaignMatchesTableIII(t *testing.T) {
	cases := PaperCampaign()
	if len(cases) != 47 {
		t.Fatalf("campaign has %d cases, want 47", len(cases))
	}
	seen := map[string]bool{}
	var minCell, maxCell, minStep, maxStep, minPlot, maxPlot, minProcs, maxProcs, maxNodes int
	minCell, minStep, minPlot, minProcs = 1<<30, 1<<30, 1<<30, 1<<30
	minCFL, maxCFL := 1.0, 0.0
	for _, c := range cases {
		if seen[c.Name] {
			t.Errorf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.Inputs().Validate(); err != nil {
			t.Errorf("%s: invalid inputs: %v", c.Name, err)
		}
		minCell = min(minCell, c.NCell)
		maxCell = max(maxCell, c.NCell)
		minStep = min(minStep, c.MaxStep)
		maxStep = max(maxStep, c.MaxStep)
		minPlot = min(minPlot, c.PlotInt)
		maxPlot = max(maxPlot, c.PlotInt)
		minProcs = min(minProcs, c.NProcs)
		maxProcs = max(maxProcs, c.NProcs)
		maxNodes = max(maxNodes, c.Nodes)
		if c.CFL < minCFL {
			minCFL = c.CFL
		}
		if c.CFL > maxCFL {
			maxCFL = c.CFL
		}
		if c.MaxLevel < 2 || c.MaxLevel > 4 {
			t.Errorf("%s: max_level %d outside Table III", c.Name, c.MaxLevel)
		}
	}
	// Table III ranges.
	if minCell != 32 || maxCell != 131072 {
		t.Errorf("n_cell range [%d, %d], want [32, 131072]", minCell, maxCell)
	}
	if minStep < 40 || maxStep > 1000 {
		t.Errorf("max_step range [%d, %d] outside [40, 1000]", minStep, maxStep)
	}
	if minPlot < 1 || maxPlot > 20 {
		t.Errorf("plot_int range [%d, %d] outside [1, 20]", minPlot, maxPlot)
	}
	if minProcs < 1 || maxProcs > 1024 {
		t.Errorf("nprocs range [%d, %d] outside [1, 1024]", minProcs, maxProcs)
	}
	if maxNodes > 512 {
		t.Errorf("nodes max %d > 512", maxNodes)
	}
	if minCFL != 0.3 || maxCFL != 0.6 {
		t.Errorf("cfl range [%g, %g], want [0.3, 0.6]", minCFL, maxCFL)
	}
}

func TestNamedCases(t *testing.T) {
	c4 := Case4()
	if c4.NCell != 512 || c4.NProcs != 32 || c4.Nodes != 2 {
		t.Errorf("case4 = %+v", c4)
	}
	if c4.MaxStep/c4.PlotInt != 20 {
		t.Errorf("case4 outputs = %d, want 20", c4.MaxStep/c4.PlotInt)
	}
	v := Case4Variant(0.6, 2)
	if v.CFL != 0.6 || v.MaxLevel != 2 || v.NCell != 512 {
		t.Errorf("variant = %+v", v)
	}
	c27 := Case27()
	if c27.NCell != 1024 || c27.NProcs != 64 || c27.MaxStep != 5 {
		t.Errorf("case27 = %+v", c27)
	}
	lg := LargeCase()
	if lg.NCell != 8192 || lg.Engine != EngineSurrogate {
		t.Errorf("large = %+v", lg)
	}
}

func TestEngineSelection(t *testing.T) {
	small := Case{NCell: 64, Engine: EngineAuto}
	if small.engineFor() != EngineHydro {
		t.Error("small case should use hydro")
	}
	big := Case{NCell: 4096, Engine: EngineAuto}
	if big.engineFor() != EngineSurrogate {
		t.Error("big case should use surrogate")
	}
	forced := Case{NCell: 64, Engine: EngineSurrogate}
	if forced.engineFor() != EngineSurrogate {
		t.Error("explicit engine ignored")
	}
}

func TestScaled(t *testing.T) {
	c := Case4().Scaled(8)
	if c.NCell != 64 || c.MaxStep != 160 {
		t.Errorf("scaled = %+v", c)
	}
	if c.CFL != 0.4 || c.MaxLevel != 4 {
		t.Error("scaling must preserve cfl and levels")
	}
	// Plot-event count preserved: 400/20 = 20 events -> 160/8.
	if c.MaxStep/c.PlotInt != Case4().MaxStep/Case4().PlotInt {
		t.Errorf("plot events changed: %d vs %d", c.MaxStep/c.PlotInt, Case4().MaxStep/Case4().PlotInt)
	}
	if Case4().Scaled(1) != Case4() {
		t.Error("Scaled(1) must be identity")
	}
	tiny := Case{Name: "t", NCell: 32, MaxStep: 10, PlotInt: 1, NProcs: 2}.Scaled(100)
	if tiny.NCell < 32 || tiny.MaxStep < 8 || tiny.PlotInt < 1 {
		t.Errorf("floors violated: %+v", tiny)
	}
	// An uneven divisor rounds down onto the blocking grid.
	for div, want := range map[int]int{3: 168, 5: 96, 7: 72, 13: 32} {
		if c := Case4().Scaled(div); c.NCell != want || c.Validate() != nil {
			t.Errorf("Case4().Scaled(%d).NCell = %d (Validate: %v), want %d", div, c.NCell, c.Validate(), want)
		}
	}
}

func TestRunHydroCase(t *testing.T) {
	fs := modelFS()
	c := Case{Name: "hydro_test", NCell: 32, MaxLevel: 2, MaxStep: 10,
		PlotInt: 5, CFL: 0.5, NProcs: 4, Engine: EngineHydro}
	res, err := Run(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineHydro {
		t.Errorf("engine = %v", res.Engine)
	}
	if res.NPlots != 3 {
		t.Errorf("plots = %d, want 3", res.NPlots)
	}
	if res.TotalBytes() == 0 || len(res.Records) == 0 {
		t.Error("no output recorded")
	}
	if res.SimTime <= 0 {
		t.Error("sim time not recorded")
	}
}

func TestRunSurrogateCase(t *testing.T) {
	fs := modelFS()
	c := Case{Name: "surr_test", NCell: 1024, MaxLevel: 2, MaxStep: 10,
		PlotInt: 5, CFL: 0.5, NProcs: 16, Engine: EngineAuto}
	res, err := Run(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineSurrogate {
		t.Errorf("engine = %v (auto should pick surrogate at 1024)", res.Engine)
	}
	if res.NPlots != 3 || res.TotalBytes() == 0 {
		t.Errorf("plots=%d bytes=%d", res.NPlots, res.TotalBytes())
	}
}

func TestResultSaveLoadRoundTrip(t *testing.T) {
	fs := modelFS()
	c := Case{Name: "roundtrip", NCell: 32, MaxLevel: 2, MaxStep: 8,
		PlotInt: 4, CFL: 0.5, NProcs: 2, Engine: EngineHydro}
	res, err := Run(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := res.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Case != res.Case || len(back.Records) != len(res.Records) {
		t.Error("round trip mismatch")
	}
	if back.TotalBytes() != res.TotalBytes() {
		t.Errorf("bytes: %d != %d", back.TotalBytes(), res.TotalBytes())
	}
	if _, err := LoadResult(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	// Data after the result is rejected, not silently dropped.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trailing := filepath.Join(t.TempDir(), "trailing.json")
	if err := os.WriteFile(trailing, append(data, " {}"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResult(trailing); err == nil {
		t.Error("trailing data accepted")
	}
}

func TestQuickCampaignRunsAllCases(t *testing.T) {
	if testing.Short() {
		t.Skip("quick campaign skipped in -short")
	}
	cases := QuickCampaign()
	if len(cases) != 47 {
		t.Fatalf("quick campaign = %d cases", len(cases))
	}
	// Execute a representative subset end-to-end (full sweep is the
	// TableIII bench).
	for _, idx := range []int{0, 13, 30, 46} {
		fs := modelFS()
		res, err := Run(cases[idx], fs)
		if err != nil {
			t.Fatalf("%s: %v", cases[idx].Name, err)
		}
		if res.TotalBytes() == 0 {
			t.Errorf("%s: no bytes", cases[idx].Name)
		}
	}
}

package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
)

// TestAdvanceAllocsIndependentOfCells: the sweeps reuse each level's
// Workspaces and refluxing walks the fine level's face list, so a step's
// allocations are per level and per FAB, never per row, per cell or per
// sweep index. Four FABs of 16² and of 64² must allocate alike (the
// per-row kernels this replaced made 548 and 2084 allocations), and so
// must a refluxed two-level hierarchy on frozen grids.
func TestAdvanceAllocsIndependentOfCells(t *testing.T) {
	allocs := func(n, maxLevel int) float64 {
		cfg := smallCfg()
		cfg.NCell = [2]int{n, n}
		cfg.MaxGridSize = n / 2
		cfg.MaxLevel = maxLevel
		s, err := New(cfg, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.FinestLevel() != maxLevel || !s.Opts.Reflux {
			t.Fatalf("%d²: finest level %d, reflux %v; want %d, true", n, s.FinestLevel(), s.Opts.Reflux, maxLevel)
		}
		s.Advance() // size the Workspaces and build the face list
		return testing.AllocsPerRun(5, s.Advance)
	}
	for _, maxLevel := range []int{0, 1} {
		small, big := allocs(32, maxLevel), allocs(128, maxLevel)
		t.Logf("max_level %d: %v allocations at 32², %v at 128²", maxLevel, small, big)
		if big > small+4 || big > 32 {
			t.Errorf("max_level %d: Advance allocates %v times at 128² and %v at 32², want a small count independent of cells", maxLevel, big, small)
		}
	}
}

// TestModelOnlyHydroPlotAllocations: a model-only filesystem prices a
// hydro plot's files by size and never encodes them, so the burst's
// allocations — count and bytes — are per level, per rank and per file,
// never per cell. Four FABs of 16² and of 64² must allocate alike; one
// encoded 10-component FAB alone is 20 KiB at 16² and 320 KiB at 64².
func TestModelOnlyHydroPlotAllocations(t *testing.T) {
	const bound, byteBound = 16, 4 << 10
	burst := func(n int) (allocs, bytes float64) {
		s, fs := modelOnlySim(t, n)
		spec := s.PlotSpec()
		if len(spec.Levels[0].BA.Boxes) != 4 || spec.Levels[0].State == nil {
			t.Fatalf("%d²: want 4 boxes with plot state", n)
		}
		write := func() {
			if _, err := plotfile.Write(fs, spec); err != nil {
				t.Fatal(err)
			}
		}
		return allocsAndBytes(write)
	}
	small, smallBytes := burst(32)
	big, bigBytes := burst(128)
	t.Logf("%v allocations (%.0f B) at 32², %v (%.0f B) at 128²", small, smallBytes, big, bigBytes)
	if big > small || big > bound {
		t.Errorf("a plot burst makes %v allocations at 128² and %v at 32², want the same count, at most %d", big, small, bound)
	}
	if bigBytes > byteBound || smallBytes > byteBound {
		t.Errorf("a plot burst allocates %.0f B at 128² and %.0f B at 32², want at most %d: nothing is encoded", bigBytes, smallBytes, byteBound)
	}
}

// TestModelOnlyPlotSpecAllocations: the plot variables are derived only
// when a Cell_D file is encoded, so assembling a hydro plot's spec and
// writing it to a model-only filesystem stays within the burst's own
// bounds at 32² and 128². Deriving the 10-component plot MultiFab alone
// is 83 KB at 32² and 1.3 MB at 128².
func TestModelOnlyPlotSpecAllocations(t *testing.T) {
	const bound, byteBound = 16, 4 << 10
	for _, n := range []int{32, 128} {
		s, fs := modelOnlySim(t, n)
		plot := func() {
			if _, err := plotfile.Write(fs, s.PlotSpec()); err != nil {
				t.Fatal(err)
			}
		}
		allocs, bytes := allocsAndBytes(plot)
		t.Logf("%d²: %v allocations (%.0f B)", n, allocs, bytes)
		if allocs > bound || bytes > byteBound {
			t.Errorf("%d²: PlotSpec plus a model-only plot burst makes %v allocations (%.0f B), want at most %d (%d B)", n, allocs, bytes, bound, byteBound)
		}
	}
}

// modelOnlySim builds a one-level n² Sim of four FABs writing to a
// model-only filesystem that retains no ledger.
func modelOnlySim(t *testing.T, n int) (*Sim, *iosim.FileSystem) {
	t.Helper()
	cfg := smallCfg()
	cfg.NCell = [2]int{n, n}
	cfg.MaxGridSize = n / 2
	cfg.MaxLevel = 0
	fsCfg := iosim.DefaultConfig()
	fsCfg.RetainLedger = iosim.RetainNone
	fs := iosim.New(fsCfg, "")
	s, err := New(cfg, DefaultOptions(), fs)
	if err != nil {
		t.Fatal(err)
	}
	return s, fs
}

// allocsAndBytes runs fn once to warm it (the first burst grows the
// shard table), then reports its allocations and bytes per call.
func allocsAndBytes(fn func()) (allocs, bytes float64) {
	fn()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return testing.AllocsPerRun(runs, fn), float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestDumpRootMatchesSprintf: dumpRoot names directories exactly as
// fmt's "%s%05d", past five digits and past its stack buffer too.
func TestDumpRootMatchesSprintf(t *testing.T) {
	for _, prefix := range []string{"", "plt", strings.Repeat("sedov_2d_cyl_in_cart_plt", 4)} {
		for _, step := range []int{0, 7, 42, 500, 99999, 100000, 1234567} {
			if got, want := dumpRoot(prefix, step), fmt.Sprintf("%s%05d", prefix, step); got != want {
				t.Errorf("dumpRoot(%q, %d) = %q, want %q", prefix, step, got, want)
			}
		}
	}
}

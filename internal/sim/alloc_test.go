package sim

import "testing"

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

package sim

import "testing"

// TestAdvanceAllocsIndependentOfCells: the sweeps reuse each level's
// Workspaces, so a step's allocations are per level and per FAB, never
// per row or per cell. Four FABs of 16² and of 64² must allocate alike
// (the per-row kernels this replaced made 548 and 2084 allocations).
func TestAdvanceAllocsIndependentOfCells(t *testing.T) {
	allocs := func(n int) float64 {
		cfg := smallCfg()
		cfg.NCell = [2]int{n, n}
		cfg.MaxGridSize = n / 2
		cfg.MaxLevel = 0
		s, err := New(cfg, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Advance() // size the Workspaces
		return testing.AllocsPerRun(5, s.Advance)
	}
	small, big := allocs(32), allocs(128)
	if big > small+4 || big > 32 {
		t.Errorf("Advance allocates %v times at 128² and %v at 32², want a small count independent of cells", big, small)
	}
}

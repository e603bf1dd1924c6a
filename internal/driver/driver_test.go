package driver

import (
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
)

// TestRemapFoldsLoadsOntoAggregators is the regression pin for the
// remap × aggregation interaction: with two-phase aggregation active
// only aggregator ranks open files, so RemapToTargets must balance the
// folded per-aggregator loads. Left unfolded, the heavy node's load
// splits across its two member ranks, LPT cannot beat round-robin
// (11/11 vs 11/11), and both aggregators co-locate on target 0 carrying
// 22 of the 22 load units; folded ([20 0 2 0]) the aggregators separate.
func TestRemapFoldsLoadsOntoAggregators(t *testing.T) {
	topo := iosim.Topology{Nodes: 2, RanksPerNode: 2, Targets: 2}
	// Ranks 0 and 1 (node 0) own 10 cells each; ranks 2 and 3 (node 1)
	// own 1 cell each.
	boxes := []grid.Box{
		{Lo: grid.IntVect{X: 0, Y: 0}, Hi: grid.IntVect{X: 9, Y: 0}},
		{Lo: grid.IntVect{X: 0, Y: 1}, Hi: grid.IntVect{X: 9, Y: 1}},
		{Lo: grid.IntVect{X: 0, Y: 2}, Hi: grid.IntVect{X: 0, Y: 2}},
		{Lo: grid.IntVect{X: 1, Y: 2}, Hi: grid.IntVect{X: 1, Y: 2}},
	}
	owner := []int{0, 1, 2, 3}

	// The unfolded layout is the regression shape: per-rank loads
	// [10 10 1 1] tie LPT with round-robin, the remap declines, and the
	// round-robin placement leaves both 1/node aggregators (ranks 0 and
	// 2) on target 0.
	if m := amr.RemapToTargets(amr.DistributionMapping{Owner: owner}, topo, []int64{10, 10, 1, 1}); m != nil {
		t.Fatalf("unfolded remap = %v, expected LPT to decline the round-robin tie", m)
	}

	fscfg := iosim.DefaultConfig()
	fscfg.JitterSigma = 0
	fscfg.Topology = topo
	fscfg.Aggregation = iosim.AggregationSpec{Aggregators: "1/node"}
	fs := iosim.New(fscfg, "")
	cfg := inputs.DefaultCastroInputs()
	cfg.NProcs = 4
	d := New(nil, cfg, Options{Remap: true}, fs)
	levels := []plotfile.LevelSpec{{BA: amr.NewBoxArray(boxes), DM: amr.DistributionMapping{Owner: owner}}}
	if err := d.remap(levels); err != nil {
		t.Fatal(err)
	}

	fs.BeginBurst(4)
	for rank := 0; rank < 4; rank++ {
		if _, err := fs.WriteSize(rank, "plt/Cell_D", 10, iosim.Labels{}); err != nil {
			t.Fatal(err)
		}
	}
	fs.EndBurst()

	// Folded loads [20 0 2 0] beat round-robin (20/2 vs 22/0), so the
	// heavy aggregator keeps target 0 and the light one moves to target
	// 1 — every rank's write lands on its aggregator's placement.
	want := []int{0, 0, 1, 1}
	for i, rec := range fs.Ledger() {
		if rec.Target != want[i] {
			t.Fatalf("rank %d wrote to target %d, want %d (folded remap must separate the aggregators)",
				rec.Rank, rec.Target, want[i])
		}
	}
}

// counter is a Model that only counts steps.
type counter struct{ step, regrids int }

func (c *counter) Advance()                                { c.step++ }
func (c *counter) Regrid() error                           { c.regrids++; return nil }
func (c *counter) Progress() (int, float64)                { return c.step, float64(c.step) }
func (c *counter) PlotSpec() plotfile.Spec                 { return plotfile.Spec{} }
func (c *counter) CheckpointSpec() plotfile.CheckpointSpec { return plotfile.CheckpointSpec{} }

// TestRunWithoutBurstsDoesNotAllocate: steps that write nothing — here
// a whole run with plotting off but the compute phase on — cost the
// driver no allocation, and regrid only when refinement is enabled.
func TestRunWithoutBurstsDoesNotAllocate(t *testing.T) {
	cfg := inputs.DefaultCastroInputs()
	cfg.NProcs, cfg.MaxStep, cfg.PlotInt, cfg.StopTime = 4, 50, 0, 0
	fs := iosim.New(iosim.DefaultConfig(), "")
	for _, maxLevel := range []int{0, 2} {
		cfg.MaxLevel = maxLevel
		m := &counter{}
		d := New(m, cfg, Options{StepSeconds: 0.5}, fs)
		allocs := testing.AllocsPerRun(5, func() {
			*m = counter{}
			if err := d.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("max_level %d: %v allocations per burst-free run, want 0", maxLevel, allocs)
		}
		if want := map[int]int{0: 0, 2: cfg.MaxStep / cfg.RegridInt}[maxLevel]; m.regrids != want {
			t.Errorf("max_level %d: %d regrids, want %d", maxLevel, m.regrids, want)
		}
	}
}

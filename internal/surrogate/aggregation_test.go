package surrogate

import (
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/iosim"
)

// TestRemapFoldsLoadsOntoAggregators pins the surrogate engine's plot
// path to the driver's aggregation-folded remap: with two-phase
// aggregation only aggregator ranks open files, so the per-rank loads
// [10 10 1 1] must fold onto the aggregators ([20 0 2 0]) before LPT
// balancing. Folded, the aggregators separate onto the two targets;
// unfolded, LPT ties round-robin and both land on target 0.
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

	fscfg := iosim.DefaultConfig()
	fscfg.JitterSigma = 0
	fscfg.Topology = topo
	fscfg.Aggregation = iosim.AggregationSpec{Aggregators: "1/node"}
	fs := iosim.New(fscfg, "")
	opts := DefaultOptions()
	opts.Remap = true
	r, err := New(cfg(64, 0, 4), opts, fs)
	if err != nil {
		t.Fatal(err)
	}
	r.BAs = []amr.BoxArray{amr.NewBoxArray(boxes)}
	r.DMs = []amr.DistributionMapping{{Owner: owner}}
	if err := r.WritePlot(); err != nil {
		t.Fatal(err)
	}

	// Every file the plot writes lands on its writer's aggregator
	// placement: ranks 0 and 1 (node 0) on target 0, ranks 2 and 3
	// (node 1) on target 1. Directory records carry no target.
	want := []int{0, 0, 1, 1}
	files := 0
	for _, rec := range fs.Ledger() {
		if rec.Target < 0 {
			continue
		}
		files++
		if rec.Target != want[rec.Rank] {
			t.Fatalf("rank %d wrote %s to target %d, want %d (folded remap must separate the aggregators)",
				rec.Rank, rec.Path, rec.Target, want[rec.Rank])
		}
	}
	if files == 0 {
		t.Fatal("plot wrote no files")
	}
}

package plotfile

import (
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/iosim"
)

// wideSizeOnlySpec is a size-only two-level dump over 512 ranks: 1024
// level-0 boxes (two per rank) and a refined quarter of the domain.
func wideSizeOnlySpec() Spec {
	const nprocs = 512
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(511, 511))
	g0 := grid.NewGeom(dom, [2]float64{0, 0}, [2]float64{1, 1})
	ba0 := amr.SingleBoxArray(dom, 16, 8)
	fine := amr.SingleBoxArray(grid.NewBox(grid.IV(256, 256), grid.IV(767, 767)), 32, 8)
	return Spec{
		Root:     "plt00100",
		VarNames: []string{"density", "xmom", "ymom", "E"},
		Step:     100,
		NProcs:   nprocs,
		Levels: []LevelSpec{
			{Geom: g0, BA: ba0, DM: amr.MustDistribute(ba0, nprocs, amr.DistKnapsack), RefRatio: 2},
			{Geom: g0.Refine(2), BA: fine, DM: amr.MustDistribute(fine, nprocs, amr.DistKnapsack), RefRatio: 2},
		},
	}
}

// TestSizeOnlyBurstAllocations is the allocation gate for a size-only
// plotfile burst: about one allocation per ledger record — its Cell_D
// path — plus a few per level and per burst, and nothing that scales
// with a goroutine or a message per rank.
func TestSizeOnlyBurstAllocations(t *testing.T) {
	spec := wideSizeOnlySpec()
	cfg := iosim.DefaultConfig()
	cfg.RetainLedger = iosim.RetainNone
	fs := iosim.New(cfg, "")
	recs, err := Write(fs, spec) // grows the shard table once
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < spec.NProcs {
		t.Fatalf("fixture wrote %d Cell_D files over %d ranks", len(recs), spec.NProcs)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Write(fs, spec); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / float64(len(recs))
	t.Logf("%.0f allocations for %d records (%.2f per record)", allocs, len(recs), perRecord)
	if perRecord > 2 {
		t.Errorf("size-only Write allocates %.2f objects per record, want <= 2", perRecord)
	}
}

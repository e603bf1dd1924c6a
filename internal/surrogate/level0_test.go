package surrogate_test

import (
	"context"
	"slices"
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/campaign"
	"amrproxyio/internal/driver"
	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/resilience"
	"amrproxyio/internal/surrogate"
)

// summitCase is a summit-stack-shaped case: 4096² over 512 ranks on 128
// nodes (256 level-0 boxes), with target outages, a degraded NIC, MTBF
// interrupts, the mitigation engine and the layout remap all active.
func summitCase() campaign.Case {
	return campaign.Case{
		Name: "summit-level0", NCell: 4096, MaxLevel: 2, MaxStep: 40, PlotInt: 2, CFL: 0.5,
		NProcs: 512, Nodes: 128, Engine: campaign.EngineSurrogate,
		Storage: campaign.StorageTiered, ComputeSeconds: 0.5,
		Faults: &faults.Plan{
			Events: []faults.Event{
				{Kind: faults.KindTargetOutage, Start: 2, End: 30, Target: 3},
				{Kind: faults.KindTargetOutage, Start: 10, End: 20, Target: 11},
				{Kind: faults.KindNICDegrade, Start: 5, End: 15, Node: 5, Factor: 0.5},
			},
			MTBFSeconds: 3,
			Seed:        1,
		},
		Mitigate: resilience.DefaultPolicy(),
		Remap:    true,
	}
}

// level0Checker is the surrogate as the driver sees it, except that every
// Regrid is followed by a check of the shared level 0.
type level0Checker struct {
	*surrogate.Runner
	t       *testing.T
	ba0     amr.BoxArray
	dm0     amr.DistributionMapping
	regrids int
}

func (c *level0Checker) Regrid() error {
	if err := c.Runner.Regrid(); err != nil {
		return err
	}
	c.regrids++
	if !slices.Equal(c.BAs[0].Boxes, c.ba0.Boxes) || !slices.Equal(c.DMs[0].Owner, c.dm0.Owner) {
		c.t.Fatalf("regrid %d: level 0 differs from a fresh SingleBoxArray + Distribute", c.regrids)
	}
	return nil
}

// TestLevel0SharedAcrossRegrids runs a whole faulted, mitigated, remapped
// run through the driver: after every Regrid, level 0 must equal a fresh
// build, so no burst, remap or checkpoint writes the shared Owner slice.
func TestLevel0SharedAcrossRegrids(t *testing.T) {
	c := summitCase()
	cfg := c.Inputs()
	cfg.RegridInt = 2
	opts := surrogate.DefaultOptions()
	opts.Options = driver.Options{Remap: c.Remap, StepSeconds: c.ComputeSeconds, Mitigate: c.Mitigate}
	fs := iosim.New(c.FSConfig(true), "")
	r, err := surrogate.New(cfg, opts, fs)
	if err != nil {
		t.Fatal(err)
	}
	ba0 := amr.SingleBoxArray(r.Geoms[0].Domain, cfg.MaxGridSize, cfg.BlockingFactor)
	chk := &level0Checker{Runner: r, t: t, ba0: ba0, dm0: amr.MustDistribute(ba0, cfg.NProcs, opts.Dist)}
	if ba0.Len() != 256 {
		t.Fatalf("level 0 has %d boxes, want summit's 256", ba0.Len())
	}
	d := driver.New(chk, cfg, opts.Options, fs)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := d.Mitigation()
	if chk.regrids < 10 || d.NPlots() < 10 || len(fs.FaultEvents()) == 0 || st == nil || st.QuarantinedTargets == 0 || st.AdaptiveCheckpoints == 0 {
		t.Fatalf("run too tame to show anything: %d regrids, %d plots, %d fault events, mitigation %+v",
			chk.regrids, d.NPlots(), len(fs.FaultEvents()), st)
	}
}

// TestRegridAllocations bounds one summit-shaped Regrid's allocations
// once the front has grown for 300 steps. Level 0 is built once in New,
// placement scans no ranks, and tag rows are carved from one growing
// slab, and Berger–Rigoutsos partitions one copy of the points in place,
// so a regrid allocates for the front's boxes and not per rank, per tag
// row or per split: 167 allocations measured, against 285 with a fresh
// pair of slices per split and 1,107 with a per-regrid level 0 and a
// map-based TagSet.
func TestRegridAllocations(t *testing.T) {
	c := summitCase()
	r, err := surrogate.New(c.Inputs(), surrogate.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		r.Advance()
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := r.Regrid(); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 300
	if allocs > bound {
		t.Errorf("Regrid allocated %.0f times, want <= %d", allocs, bound)
	}
}

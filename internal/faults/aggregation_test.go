package faults

import (
	"testing"

	"amrproxyio/internal/iosim"
)

// aggConfig is the jitter-free two-node aggregation config the fault
// interaction tests price against: 1 aggregator per node, both
// aggregators round-robin onto target 0, members gather at 50 B/s and
// each 2-rank group time-shares its aggregator's 100 B/s stream.
func aggConfig() iosim.Config {
	return iosim.Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 100,
		Topology: iosim.Topology{
			Nodes: 2, RanksPerNode: 2, Targets: 2,
		},
		Aggregation: iosim.AggregationSpec{
			Aggregators:     "1/node",
			GatherBandwidth: 50,
		},
	}
}

// TestTargetOutageOnAggregatorWrites: with aggregation active the fault
// seam sees the aggregator's folded placement, so an outage on the
// aggregators' target hits every rank's write — members pay the retry
// storm on top of their gather — and the whole collective fails over
// together.
func TestTargetOutageOnAggregatorWrites(t *testing.T) {
	cfg := aggConfig()
	plan := &Plan{Events: []Event{{Kind: KindTargetOutage, Start: 0, End: 100, Target: 0}}}
	cfg.Faults = plan.Injector(cfg.Topology)
	fs := iosim.New(cfg, "")
	fs.BeginBurst(4)
	durs := make([]float64, 4)
	for r := 0; r < 4; r++ {
		d, err := fs.WriteSize(r, "plt/Cell_D", 100, iosim.Labels{Step: 0})
		if err != nil {
			t.Fatal(err)
		}
		durs[r] = d
	}
	fs.EndBurst()

	storm := plan.retrySeconds()
	// Aggregators: retry storm + 100 B over the 50 B/s group share.
	exactly(t, "aggregator duration", durs[0], storm+2)
	exactly(t, "aggregator duration", durs[2], storm+2)
	// Members: 2s gather, then the same stormed write phase.
	exactly(t, "member duration", durs[1], 2+storm+2)
	exactly(t, "member duration", durs[3], 2+storm+2)

	for _, r := range fs.Ledger() {
		if r.Fault != KindTargetOutage || r.Retries != 3 {
			t.Fatalf("record = %+v, want a stormed target-outage", r)
		}
		if r.Target != 1 {
			t.Fatalf("rank %d target = %d, want collective failover to 1", r.Rank, r.Target)
		}
	}
	evs := fs.FaultEvents()
	if len(evs) != 4 {
		t.Fatalf("FaultEvents = %d, want one per rank in the collective", len(evs))
	}
	for _, ev := range evs {
		if ev.Target != 0 || ev.FailoverTarget != 1 {
			t.Fatalf("event = %+v, want outage on the aggregator target 0 → 1", ev)
		}
	}
}

// TestTargetOutageOffAggregatorPathInert: the same outage on the target
// NO aggregator writes to never fires — aggregation concentrated the
// collective onto target 0, so target 1's window matches nothing — while
// the direct pattern (which round-robins half the ranks onto target 1)
// pays it. This is the regression shape for pricing faults against the
// folded placement instead of the original writer's.
func TestTargetOutageOffAggregatorPathInert(t *testing.T) {
	plan := &Plan{Events: []Event{{Kind: KindTargetOutage, Start: 0, End: 100, Target: 1}}}

	cfg := aggConfig()
	cfg.Faults = plan.Injector(cfg.Topology)
	fs := iosim.New(cfg, "")
	fs.BeginBurst(4)
	for r := 0; r < 4; r++ {
		if _, err := fs.WriteSize(r, "a", 100, iosim.Labels{Step: 0}); err != nil {
			t.Fatal(err)
		}
	}
	fs.EndBurst()
	if evs := fs.FaultEvents(); len(evs) != 0 {
		t.Fatalf("aggregated run faulted %d writes on the unused target: %+v", len(evs), evs)
	}

	direct := aggConfig()
	direct.Aggregation = iosim.AggregationSpec{}
	direct.Faults = plan.Injector(direct.Topology)
	fs = iosim.New(direct, "")
	fs.BeginBurst(4)
	for r := 0; r < 4; r++ {
		if _, err := fs.WriteSize(r, "a", 100, iosim.Labels{Step: 0}); err != nil {
			t.Fatal(err)
		}
	}
	fs.EndBurst()
	if evs := fs.FaultEvents(); len(evs) != 2 {
		t.Fatalf("direct run faulted %d writes, want the 2 ranks round-robined onto target 1", len(evs))
	}
}

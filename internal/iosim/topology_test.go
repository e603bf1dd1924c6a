package iosim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refAggregateBandwidth replicates the historical aggregate model's
// per-writer bandwidth (the pre-topology snapshotBandwidth) so the
// property test below pins the unset-Topology filesystem to it.
func refAggregateBandwidth(cfg Config, writers int) float64 {
	bw := cfg.PerWriterBandwidth
	if writers > 1 {
		if share := cfg.AggregateBandwidth / float64(writers); share < bw {
			bw = share
		}
	}
	if bw <= 0 {
		bw = 1
	}
	return bw
}

// TestTopologyUnsetByteIdenticalToAggregate is the acceptance property:
// with a zero Topology, every ledger record, BurstStat, and
// Characterization is byte-identical to the aggregate model — durations
// match the historical formula exactly, no record carries link labels,
// and no topology field or Render line appears.
func TestTopologyUnsetByteIdenticalToAggregate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0.2 // jitter on: the pin must hold bit-for-bit with it
	if !reflect.DeepEqual(cfg.Topology, Topology{}) {
		t.Fatal("DefaultConfig must leave the topology disabled")
	}
	fs := New(cfg, "")

	rng := rand.New(rand.NewSource(7))
	type op struct {
		rank  int
		path  string
		bytes int64
		dir   bool
	}
	writers := 0 // current burst size; 0 = outside a burst
	var expected []WriteRecord
	clocks := map[int]float64{}
	for i := 0; i < 500; i++ {
		switch {
		case rng.Intn(10) == 0:
			writers = 1 + rng.Intn(64)
			fs.BeginBurst(writers)
			continue
		case writers > 0 && rng.Intn(12) == 0:
			writers = 0
			fs.EndBurst()
			continue
		}
		o := op{
			rank:  rng.Intn(32),
			path:  "plt/Cell_D_" + string(rune('a'+rng.Intn(26))),
			bytes: int64(rng.Intn(1 << 20)),
			dir:   rng.Intn(8) == 0,
		}
		var dur float64
		if o.dir {
			if err := fs.Mkdir(o.rank, o.path, Labels{Step: i % 5}); err != nil {
				t.Fatal(err)
			}
			dur = cfg.OpenLatency
			o.bytes = 0
		} else {
			var err error
			dur, err = fs.WriteSize(o.rank, o.path, o.bytes, Labels{Step: i % 5})
			if err != nil {
				t.Fatal(err)
			}
			bw := refAggregateBandwidth(cfg, writers)
			want := (cfg.OpenLatency + float64(o.bytes)/bw) * fs.jitter(o.rank, o.path)
			if dur != want {
				t.Fatalf("op %d: duration %g != aggregate reference %g", i, dur, want)
			}
		}
		open := cfg.OpenLatency // Mkdir charges the open unjittered
		if !o.dir {
			open = cfg.OpenLatency * fs.jitter(o.rank, o.path)
		}
		expected = append(expected, WriteRecord{
			Rank: o.rank, Path: o.path, Bytes: o.bytes,
			Start: clocks[o.rank], Duration: dur,
			Labels: Labels{Step: i % 5}, Dir: o.dir,
			Node: -1, Target: -1,
			OpenSeconds: open,
		})
		clocks[o.rank] += dur
	}

	ledger := fs.Ledger()
	byRank := map[int][]WriteRecord{}
	for _, r := range ledger {
		byRank[r.Rank] = append(byRank[r.Rank], r)
	}
	wantByRank := map[int][]WriteRecord{}
	for _, r := range expected {
		wantByRank[r.Rank] = append(wantByRank[r.Rank], r)
	}
	if !reflect.DeepEqual(byRank, wantByRank) {
		t.Fatal("ledger differs from the aggregate-model reference")
	}

	for _, b := range Fold(ledger).Bursts() {
		if b.Nodes != 0 || b.Links != 0 || b.LinkSkew != 0 || b.NodeSkew != 0 ||
			b.MaxLinkSeconds != 0 || b.MeanLinkSeconds != 0 {
			t.Fatalf("aggregate-model burst carries topology fields: %+v", b)
		}
	}
	c := Fold(ledger).Profile()
	if c.NodesUsed != 0 || c.TargetsUsed != 0 || c.LinksUsed != 0 ||
		c.NodeImbalance != 0 || c.LinkImbalance != 0 {
		t.Fatalf("aggregate-model characterization carries topology fields: %+v", c)
	}
	if s := c.Render(); strings.Contains(s, "topology") {
		t.Fatal("aggregate-model Render mentions topology")
	}
}

// TestTwoNodeContention is the acceptance scenario: on a 2-node topology,
// two writers packed onto the same node contend for its NIC (per-link
// bandwidth below the aggregate case) while the same two writers spread
// across nodes do not.
func TestTwoNodeContention(t *testing.T) {
	base := Config{
		AggregateBandwidth: 1e12, // never binding here
		PerWriterBandwidth: 2e9,
		OpenLatency:        0,
		JitterSigma:        0,
	}
	burstWrite := func(cfg Config) (d0, d1 float64) {
		fs := New(cfg, "")
		fs.BeginBurst(2)
		d0, _ = fs.WriteSize(0, "a", 1e9, Labels{})
		d1, _ = fs.WriteSize(1, "b", 1e9, Labels{})
		fs.EndBurst()
		return d0, d1
	}

	aggD0, aggD1 := burstWrite(base)

	packed := base
	packed.Topology = Topology{Nodes: 2, RanksPerNode: 2, NICBandwidth: 2e9}
	pkD0, pkD1 := burstWrite(packed)
	// Same node: the 2 GB/s NIC splits two ways -> 1 GB/s each, twice the
	// aggregate-case duration.
	if want := 2 * aggD0; math.Abs(pkD0-want) > 1e-9 || math.Abs(pkD1-want) > 1e-9 {
		t.Errorf("packed durations = %g, %g; want %g (NIC contention)", pkD0, pkD1, want)
	}

	spread := base
	spread.Topology = Topology{Nodes: 2, RanksPerNode: 1, NICBandwidth: 2e9}
	spD0, spD1 := burstWrite(spread)
	// One writer per node: each has a private NIC, durations match the
	// aggregate model exactly.
	if spD0 != aggD0 || spD1 != aggD1 {
		t.Errorf("spread durations = %g, %g; want aggregate %g, %g", spD0, spD1, aggD0, aggD1)
	}
}

// TestTargetFanInContention checks the NSD fan-in cap: writers on
// different nodes still contend when they hammer the same storage target.
func TestTargetFanInContention(t *testing.T) {
	cfg := Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 2e9,
		Topology: Topology{
			Nodes: 2, RanksPerNode: 1,
			Targets: 1, TargetBandwidth: 1e9,
		},
	}
	fs := New(cfg, "")
	fs.BeginBurst(2)
	d0, _ := fs.WriteSize(0, "a", 1e9, Labels{})
	d1, _ := fs.WriteSize(1, "b", 1e9, Labels{})
	fs.EndBurst()
	// Both ranks fan into the single 1 GB/s target: 0.5 GB/s each.
	if want := 2.0; math.Abs(d0-want) > 1e-9 || math.Abs(d1-want) > 1e-9 {
		t.Errorf("fan-in durations = %g, %g; want %g", d0, d1, want)
	}

	cfg.Topology.Targets = 2 // one writer per target: only PerWriter binds... capped at 1e9 by target
	fs = New(cfg, "")
	fs.BeginBurst(2)
	d0, _ = fs.WriteSize(0, "a", 1e9, Labels{})
	d1, _ = fs.WriteSize(1, "b", 1e9, Labels{})
	fs.EndBurst()
	if want := 1.0; math.Abs(d0-want) > 1e-9 || math.Abs(d1-want) > 1e-9 {
		t.Errorf("spread-target durations = %g, %g; want %g", d0, d1, want)
	}
}

// TestPlacementEdgeCases covers 1 node, ranks > nodes (packed), and rank
// counts not divisible by the node count.
func TestPlacementEdgeCases(t *testing.T) {
	// One node: every rank lands on node 0 and shares its NIC.
	one := Topology{Nodes: 1, NICBandwidth: 4e9}
	for r := 0; r < 8; r++ {
		if n := one.NodeOf(r, 8); n != 0 {
			t.Fatalf("1-node NodeOf(%d) = %d", r, n)
		}
	}
	cfg := Config{AggregateBandwidth: 1e12, PerWriterBandwidth: 2e9, Topology: one}
	fs := New(cfg, "")
	fs.BeginBurst(4)
	d, _ := fs.WriteSize(2, "x", 1e9, Labels{})
	if want := 1.0; math.Abs(d-want) > 1e-9 { // 4e9 NIC / 4 writers = 1e9
		t.Errorf("1-node shared-NIC duration = %g, want %g", d, want)
	}

	// 5 ranks on 2 nodes, packing derived: ceil(5/2)=3 -> nodes get 3 and 2.
	two := Topology{Nodes: 2, NICBandwidth: 6e9}
	wantNode := []int{0, 0, 0, 1, 1}
	for r, want := range wantNode {
		if n := two.NodeOf(r, 5); n != want {
			t.Errorf("NodeOf(%d, 5 ranks) = %d, want %d", r, n, want)
		}
	}
	cfg = Config{AggregateBandwidth: 1e12, PerWriterBandwidth: 1e10, Topology: two}
	fs = New(cfg, "")
	fs.BeginBurst(5)
	dPacked, _ := fs.WriteSize(0, "a", 1e9, Labels{}) // node 0: 3 writers -> 2e9
	dLight, _ := fs.WriteSize(4, "b", 1e9, Labels{})  // node 1: 2 writers -> 3e9
	if want := 0.5; math.Abs(dPacked-want) > 1e-9 {
		t.Errorf("packed-node duration = %g, want %g", dPacked, want)
	}
	if want := 1.0 / 3; math.Abs(dLight-want) > 1e-9 {
		t.Errorf("light-node duration = %g, want %g", dLight, want)
	}

	// 7 ranks on 3 nodes: ceil(7/3)=3 -> occupancy 3,3,1.
	three := Topology{Nodes: 3}
	wantNode = []int{0, 0, 0, 1, 1, 1, 2}
	for r, want := range wantNode {
		if n := three.NodeOf(r, 7); n != want {
			t.Errorf("NodeOf(%d, 7 ranks) = %d, want %d", r, n, want)
		}
	}
}

// TestZeroByteOpsOnCappedLink pins metadata behavior under the topology:
// a Mkdir (zero-byte Dir record) on a fully capped link still costs
// exactly one open latency, and a zero-byte write costs the same — link
// caps scale transfer time, not metadata latency.
func TestZeroByteOpsOnCappedLink(t *testing.T) {
	cfg := Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 2e9,
		OpenLatency:        0.25,
		Topology: Topology{
			Nodes: 1, NICBandwidth: 1, // pathologically slow link
			Targets: 1, TargetBandwidth: 1,
		},
	}
	fs := New(cfg, "")
	fs.BeginBurst(2)
	if err := fs.Mkdir(0, "plt00000", Labels{Step: 3}); err != nil {
		t.Fatal(err)
	}
	d, err := fs.WriteSize(1, "plt00000/empty", 0, Labels{Step: 3})
	if err != nil {
		t.Fatal(err)
	}
	fs.EndBurst()
	if d != cfg.OpenLatency {
		t.Errorf("zero-byte write duration = %g, want open latency %g", d, cfg.OpenLatency)
	}
	rec := fs.Ledger()
	if len(rec) != 2 {
		t.Fatalf("ledger len = %d", len(rec))
	}
	dir := rec[0]
	if !dir.Dir || dir.Duration != cfg.OpenLatency {
		t.Errorf("dir record = %+v, want open-latency Dir record", dir)
	}
	if dir.Node != 0 || dir.Target != -1 {
		t.Errorf("dir labels = (node %d, target %d), want (0, -1)", dir.Node, dir.Target)
	}
	if rec[1].Node != 0 || rec[1].Target != 0 {
		t.Errorf("write labels = (node %d, target %d), want (0, 0)", rec[1].Node, rec[1].Target)
	}
}

// TestTopologyAggregations drives a labeled burst and checks the per-link
// fields of the fold's bursts and profile.
func TestTopologyAggregations(t *testing.T) {
	cfg := Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 1e9,
		Topology: Topology{
			Nodes: 2, RanksPerNode: 2,
			NICBandwidth: 2e9, Targets: 2, TargetBandwidth: 1e12,
		},
	}
	fs := New(cfg, "")
	fs.BeginBurst(4)
	// Node 0 writes 3x the bytes of node 1.
	fs.WriteSize(0, "a", 3e6, Labels{Step: 1}) // node 0, target 0
	fs.WriteSize(1, "b", 3e6, Labels{Step: 1}) // node 0, target 1
	fs.WriteSize(2, "c", 1e6, Labels{Step: 1}) // node 1, target 0
	fs.WriteSize(3, "d", 1e6, Labels{Step: 1}) // node 1, target 1
	fs.EndBurst()

	stats := Fold(fs.Ledger()).Bursts()
	if len(stats) != 1 {
		t.Fatalf("stats len = %d", len(stats))
	}
	b := stats[0]
	if b.Nodes != 2 || b.Links != 4 {
		t.Errorf("nodes/links = %d/%d, want 2/4", b.Nodes, b.Links)
	}
	if want := 1.5; math.Abs(b.NodeSkew-want) > 1e-12 { // 6e6 vs mean 4e6
		t.Errorf("NodeSkew = %g, want %g", b.NodeSkew, want)
	}
	if b.LinkSkew <= 1 {
		t.Errorf("LinkSkew = %g, want > 1 (node-0 links are slower)", b.LinkSkew)
	}
	if b.MaxLinkSeconds < b.MeanLinkSeconds {
		t.Error("MaxLinkSeconds < MeanLinkSeconds")
	}

	c := Fold(fs.Ledger()).Profile()
	if c.NodesUsed != 2 || c.TargetsUsed != 2 || c.LinksUsed != 4 {
		t.Errorf("characterize topology = %d nodes, %d targets, %d links",
			c.NodesUsed, c.TargetsUsed, c.LinksUsed)
	}
	if want := 1.5; math.Abs(c.NodeImbalance-want) > 1e-12 {
		t.Errorf("NodeImbalance = %g, want %g", c.NodeImbalance, want)
	}
	if !strings.Contains(c.Render(), "topology") {
		t.Error("Render omits the topology section for a labeled ledger")
	}
}

// TestTopologyForCase pins the Summit-derived helper.
func TestTopologyForCase(t *testing.T) {
	topo := TopologyForCase(2, 32)
	if !topo.Enabled() || topo.Nodes != 2 || topo.RanksPerNode != 16 {
		t.Errorf("TopologyForCase(2, 32) = %+v", topo)
	}
	if topo.Targets != AlpineNSDServers || topo.NICBandwidth != SummitNICBandwidth {
		t.Errorf("Summit constants not applied: %+v", topo)
	}
	if topo.TargetBandwidth <= 0 {
		t.Error("TargetBandwidth must be positive")
	}
	if ranks := TopologyForCase(3, 7).RanksPerNode; ranks != 3 { // ceil(7/3)
		t.Errorf("ceil packing = %d, want 3", ranks)
	}
	if TopologyForCase(0, 8).Enabled() {
		t.Error("0 nodes must disable the topology")
	}
}

// TestTargetMapOverride pins TargetOf semantics: installed entries win,
// out-of-range entries and uncovered ranks fall back to round-robin.
func TestTargetMapOverride(t *testing.T) {
	topo := Topology{Nodes: 1, Targets: 3, TargetMap: []int{2, 2, -1, 99}}
	want := []int{2, 2, 2, 0, 1, 2} // ranks 2,3 invalid entries -> r%3; ranks 4,5 uncovered -> r%3
	for r, w := range want {
		if got := topo.TargetOf(r); got != w {
			t.Errorf("TargetOf(%d) = %d, want %d", r, got, w)
		}
	}
	if (Topology{Targets: 3, TargetMap: []int{0}}).TargetOf(0) != -1 {
		t.Error("disabled topology must return -1 even with a map")
	}
}

// TestRetargetIdentityByteIdentical is the remap acceptance pin: a
// Retarget with the round-robin identity map leaves every duration,
// label, and ledger record byte-identical to no retarget at all; and a
// zero-topology filesystem ignores Retarget entirely.
func TestRetargetIdentityByteIdentical(t *testing.T) {
	cfg := Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 4e9,
		OpenLatency:        0.001,
		JitterSigma:        0.1,
		Seed:               7,
		Topology: Topology{
			Nodes: 2, RanksPerNode: 2,
			NICBandwidth: 4e9, Targets: 2, TargetBandwidth: 3e9,
		},
	}
	run := func(identity bool) []WriteRecord {
		fs := New(cfg, "")
		for step := 0; step < 3; step++ {
			if identity {
				fs.Retarget([]int{0, 1, 0, 1}) // == r % 2
			}
			fs.BeginBurst(4)
			for r := 0; r < 4; r++ {
				if _, err := fs.WriteSize(r, "plt/Cell_D", int64(1e6*(r+1)), Labels{Step: step}); err != nil {
					t.Fatal(err)
				}
			}
			fs.EndBurst()
		}
		return fs.Ledger()
	}
	a, b := run(false), run(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identity retarget changed the ledger")
	}

	// Zero topology: Retarget is a no-op, ledger stays label-free.
	plain := New(Config{AggregateBandwidth: 1e12, PerWriterBandwidth: 4e9}, "")
	plain.Retarget([]int{0, 0})
	plain.BeginBurst(2)
	plain.WriteSize(0, "x", 100, Labels{})
	plain.EndBurst()
	if rec := plain.Ledger(); rec[0].Node != -1 || rec[0].Target != -1 {
		t.Errorf("zero-topology retarget labeled records: %+v", rec[0])
	}
}

// TestRetargetChangesContention: forcing two writers onto one target
// halves their share; Retarget(nil) restores the round-robin layout.
func TestRetargetChangesContention(t *testing.T) {
	cfg := Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 4e9,
		Topology: Topology{
			Nodes: 2, RanksPerNode: 1,
			Targets: 2, TargetBandwidth: 1e9,
		},
	}
	fs := New(cfg, "")
	burst := func() (d0, d1 float64, rec0 WriteRecord) {
		fs.BeginBurst(2)
		d0, _ = fs.WriteSize(0, "a", 1e9, Labels{})
		d1, _ = fs.WriteSize(1, "b", 1e9, Labels{})
		fs.EndBurst()
		for _, r := range fs.Ledger() {
			if r.Rank == 0 {
				rec0 = r // rank 0's latest record (ledger is rank-major)
			}
		}
		return d0, d1, rec0
	}

	// Round-robin: one writer per 1 GB/s target -> 1s each.
	d0, d1, _ := burst()
	if math.Abs(d0-1) > 1e-9 || math.Abs(d1-1) > 1e-9 {
		t.Fatalf("round-robin durations = %g, %g, want 1", d0, d1)
	}

	// Collide both writers on target 0: 0.5 GB/s each -> 2s.
	fs.Retarget([]int{0, 0})
	d0, d1, rec := burst()
	if math.Abs(d0-2) > 1e-9 || math.Abs(d1-2) > 1e-9 {
		t.Fatalf("collided durations = %g, %g, want 2", d0, d1)
	}
	if rec.Target != 0 {
		t.Errorf("collided record target = %d, want 0", rec.Target)
	}

	// Retarget(nil) restores the configured placement.
	fs.Retarget(nil)
	d0, d1, _ = burst()
	if math.Abs(d0-1) > 1e-9 || math.Abs(d1-1) > 1e-9 {
		t.Fatalf("restored durations = %g, %g, want 1", d0, d1)
	}

	// Every other stack reads the new placement at the next BeginBurst
	// too. Under "1/node" (3 ranks per node) aggregators 0 and 3 carry
	// three ranks' bytes each through round-robin targets 0 and 1;
	// members first gather at 50 GB/s over 2 senders (0.04 s). A
	// one-byte staging buffer, or a one-byte burst buffer draining
	// through the GPFS tier, stalls every write through at the rank's
	// GPFS bandwidth, so the collision doubles the transfer there too.
	for _, tc := range []struct {
		name     string
		rpn      int
		agg      AggregationSpec
		bb       BurstBuffer
		storage  string
		gather   []float64 // per-rank gather seconds
		transfer float64   // per-rank transfer seconds, round-robin
	}{
		{name: "1/node", rpn: 3, agg: AggregationSpec{Aggregators: "1/node"},
			gather: []float64{0, .04, .04, 0, .04, .04}, transfer: 3},
		{name: "1/node+async", rpn: 3, agg: AggregationSpec{Aggregators: "1/node", Async: true, StagingCapacity: 1},
			gather: []float64{0, .04, .04, 0, .04, .04}, transfer: 3},
		{name: "bb+gpfs", rpn: 1, storage: StorageTiered,
			bb:     BurstBuffer{NodeCapacity: 1, NodeBandwidth: 1e12, DrainBandwidth: 1e12},
			gather: []float64{0, 0}, transfer: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.Topology.RanksPerNode = tc.rpn
			c.Aggregation, c.BurstBuffer, c.Storage = tc.agg, tc.bb, tc.storage
			fs := New(c, "")
			n := len(tc.gather)
			burst := func(label string, scale float64) {
				fs.BeginBurst(n)
				for r := 0; r < n; r++ {
					d, err := fs.WriteSize(r, "a", 1e9, Labels{})
					if err != nil {
						t.Fatal(err)
					}
					if want := tc.gather[r] + scale*tc.transfer; math.Abs(d-want) > 1e-6*want {
						t.Errorf("%s: rank %d duration = %g, want %g", label, r, d, want)
					}
				}
				fs.EndBurst()
			}
			burst("round-robin", 1)
			if err := fs.Retarget(make([]int, n)); err != nil { // every rank on target 0
				t.Fatal(err)
			}
			burst("collided", 2)
			fs.Retarget(nil)
			burst("restored", 1)
		})
	}
}

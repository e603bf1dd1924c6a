package iosim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// driveStorageOps runs a deterministic random mix of bursts, writes,
// mkdirs, and clock advances against a filesystem and returns its ledger
// — the shared harness for the equivalence pins below (same style as the
// PR-3/PR-4 zero-Topology pins).
func driveStorageOps(t *testing.T, cfg Config) []WriteRecord {
	t.Helper()
	fs := New(cfg, "")
	rng := rand.New(rand.NewSource(99))
	writers := 0
	for i := 0; i < 400; i++ {
		switch {
		case rng.Intn(10) == 0:
			writers = 1 + rng.Intn(48)
			fs.BeginBurst(writers)
			continue
		case writers > 0 && rng.Intn(12) == 0:
			writers = 0
			fs.EndBurst()
			continue
		case rng.Intn(16) == 0:
			fs.AdvanceClock(rng.Intn(16), rng.Float64())
			continue
		}
		rank := rng.Intn(24)
		path := "plt/Cell_D_" + string(rune('a'+rng.Intn(26)))
		if rng.Intn(8) == 0 {
			if err := fs.Mkdir(rank, path, Labels{Step: i % 6}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := fs.WriteSize(rank, path, int64(rng.Intn(1<<21)), Labels{Step: i % 6}); err != nil {
			t.Fatal(err)
		}
	}
	return fs.Ledger()
}

// TestStorageGPFSByteIdenticalToDefault is the refactor acceptance pin:
// selecting Storage "gpfs" by name produces a ledger, burst statistics,
// characterization, and rendering byte-identical to the default ("")
// stack — under both the aggregate model and the per-link topology model
// (which together are pinned to the pre-StorageModel FileSystem by the
// PR-3/PR-4 property tests that keep passing unchanged).
func TestStorageGPFSByteIdenticalToDefault(t *testing.T) {
	for _, topo := range []Topology{
		{},
		{Nodes: 3, NICBandwidth: 5e9, Targets: 4, TargetBandwidth: 2e9},
	} {
		cfg := DefaultConfig()
		cfg.JitterSigma = 0.2 // jitter on: the pin must hold bit-for-bit with it
		cfg.Topology = topo

		def := cfg
		def.Storage = StorageDefault
		named := cfg
		named.Storage = StorageGPFS

		a := driveStorageOps(t, def)
		b := driveStorageOps(t, named)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("topology %+v: %q ledger differs from default", topo, StorageGPFS)
		}
		// Bursts/Profile accumulate a few float means in map
		// iteration order, so identical ledgers can differ in the last
		// ulp across calls; compare those fields with a tolerance and
		// everything else exactly.
		sa, sb := Fold(a).Bursts(), Fold(b).Bursts()
		if len(sa) != len(sb) {
			t.Fatalf("topology %+v: burst counts differ", topo)
		}
		for i := range sa {
			x, y := sa[i], sb[i]
			approx(t, "MeanSeconds", &x.MeanSeconds, &y.MeanSeconds)
			approx(t, "MeanLinkSeconds", &x.MeanLinkSeconds, &y.MeanLinkSeconds)
			approx(t, "LinkSkew", &x.LinkSkew, &y.LinkSkew)
			approx(t, "NodeSkew", &x.NodeSkew, &y.NodeSkew)
			if x != y {
				t.Fatalf("topology %+v: burst %d differs:\n%+v\n%+v", topo, i, x, y)
			}
		}
		ca, cb := Fold(a).Profile(), Fold(b).Profile()
		approx(t, "RankImbalance", &ca.RankImbalance, &cb.RankImbalance)
		approx(t, "NodeImbalance", &ca.NodeImbalance, &cb.NodeImbalance)
		approx(t, "LinkImbalance", &ca.LinkImbalance, &cb.LinkImbalance)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("topology %+v: characterizations differ:\n%+v\n%+v", topo, ca, cb)
		}
		// Single-tier stacks must leave records untiered and tier
		// aggregations zero — that is what keeps historical ledgers
		// byte-identical.
		for _, r := range a {
			if r.Tier != "" || r.StallSeconds != 0 || r.DrainSeconds != 0 || r.BBFill != 0 {
				t.Fatalf("single-tier record carries tier fields: %+v", r)
			}
		}
		if ca.BBBytes != 0 || ca.SpillBytes != 0 || ca.MaxBBFill != 0 ||
			ca.StallRanks != 0 || ca.DrainSeconds != 0 {
			t.Fatalf("single-tier characterization carries tier fields: %+v", ca)
		}
		if strings.Contains(ca.Render(), "storage tiers") {
			t.Fatal("single-tier Render mentions storage tiers")
		}
	}
}

// approx fails the test unless *x and *y agree to float round-off, then
// equalizes them so the caller can compare the rest of the struct exactly.
func approx(t *testing.T, field string, x, y *float64) {
	t.Helper()
	if diff := math.Abs(*x - *y); diff > 1e-9*(1+math.Abs(*x)) {
		t.Fatalf("%s differs beyond round-off: %g vs %g", field, *x, *y)
	}
	*y = *x
}

func TestParseStorage(t *testing.T) {
	for _, name := range []string{"", "gpfs", "bb", "bb+gpfs"} {
		got, err := ParseStorage(name)
		if err != nil || got != name {
			t.Errorf("ParseStorage(%q) = %q, %v", name, got, err)
		}
	}
	for _, bad := range []string{"nvme", "GPFS", "bb+", "gpfs+bb"} {
		if _, err := ParseStorage(bad); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("ParseStorage(%q) err = %v, want error naming it", bad, err)
		}
	}
}

func TestNewPanicsOnUnknownStorage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an unknown storage name")
		}
	}()
	cfg := DefaultConfig()
	cfg.Storage = "nvme"
	New(cfg, "")
}

// bbTestConfig is a burst buffer with round-number shares: one rank owns
// the whole node — capacity 100 B, fill 10 B/s, drain 5 B/s — and the
// GPFS baseline never binds.
func bbTestConfig(storage string) Config {
	return Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 1e12,
		Storage:            storage,
		BurstBuffer: BurstBuffer{
			NodeCapacity:   100,
			NodeBandwidth:  10,
			DrainBandwidth: 5,
			Nodes:          1,
			RanksPerNode:   1,
		},
	}
}

// TestBBFillAndStall walks the fluid model through its phases: a write
// that fits the buffer moves at NVMe speed, a write that fills it
// mid-burst stalls to the drain rate for the remainder, and the drain
// empties the buffer across a compute gap.
func TestBBFillAndStall(t *testing.T) {
	fs := New(bbTestConfig(StorageBB), "")
	fs.BeginBurst(1)

	// 100 B at fill 10, drain 5: 10s transfer, net growth 50 B.
	d, err := fs.WriteSize(0, "a", 100, Labels{Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-10) > 1e-12 {
		t.Errorf("absorbed write duration = %g, want 10", d)
	}

	// 200 B starting at occupancy 50: phase 1 fills the remaining 50 B
	// of headroom in 10s (moving 100 B), phase 2 pushes the last 100 B
	// at the 5 B/s drain -> 30s total, 10s of stall.
	d, err = fs.WriteSize(0, "b", 200, Labels{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-30) > 1e-12 {
		t.Errorf("stalled write duration = %g, want 30", d)
	}
	fs.EndBurst()

	// A 20s compute gap drains 100 B: the buffer is empty again.
	fs.AdvanceClock(0, 20)
	fs.BeginBurst(1)
	d, _ = fs.WriteSize(0, "c", 10, Labels{Step: 2})
	if math.Abs(d-1) > 1e-12 {
		t.Errorf("post-drain write duration = %g, want 1", d)
	}
	fs.EndBurst()

	rec := fs.Ledger()
	if len(rec) != 3 {
		t.Fatalf("ledger len = %d", len(rec))
	}
	if rec[0].Tier != TierBB || rec[0].StallSeconds != 0 {
		t.Errorf("absorbed record = %+v, want TierBB no stall", rec[0])
	}
	if math.Abs(rec[0].BBFill-0.5) > 1e-12 || math.Abs(rec[0].DrainSeconds-10) > 1e-12 {
		t.Errorf("absorbed record fill/drain = %g/%g, want 0.5/10", rec[0].BBFill, rec[0].DrainSeconds)
	}
	if rec[1].Tier != TierGPFS || math.Abs(rec[1].StallSeconds-10) > 1e-12 {
		t.Errorf("stalled record = %+v, want TierGPFS stall 10", rec[1])
	}
	if rec[1].BBFill != 1 || math.Abs(rec[1].DrainSeconds-20) > 1e-12 {
		t.Errorf("stalled record fill/drain = %g/%g, want 1/20", rec[1].BBFill, rec[1].DrainSeconds)
	}
	if rec[2].Tier != TierBB || math.Abs(rec[2].BBFill-0.05) > 1e-12 {
		t.Errorf("post-drain record = %+v, want fill 0.05", rec[2])
	}

	// The burst aggregations see the stall straggler and the drain tail.
	stats := Fold(rec).Bursts()
	if len(stats) != 3 {
		t.Fatalf("bursts = %d", len(stats))
	}
	if stats[0].BBBytes != 100 || stats[0].SpillBytes != 0 || stats[0].StallRanks != 0 {
		t.Errorf("burst 0 = %+v", stats[0])
	}
	if stats[1].SpillBytes != 200 || stats[1].StallRanks != 1 ||
		math.Abs(stats[1].StallSeconds-10) > 1e-12 || math.Abs(stats[1].DrainSeconds-20) > 1e-12 {
		t.Errorf("burst 1 = %+v", stats[1])
	}
	c := Fold(rec).Profile()
	if c.BBBytes != 110 || c.SpillBytes != 200 || c.MaxBBFill != 1 || c.StallRanks != 1 {
		t.Errorf("characterization tiers = %+v", c)
	}
	if !strings.Contains(c.Render(), "storage tiers") {
		t.Error("Render omits the storage-tier section for a tiered ledger")
	}
}

// TestBBBurstLargerThanBuffer: a single write bigger than the whole
// partition write-throughs most of its bytes at the drain rate.
func TestBBBurstLargerThanBuffer(t *testing.T) {
	fs := New(bbTestConfig(StorageBB), "")
	fs.BeginBurst(1)
	// 1000 B: 20s to fill the 100 B partition (moving 200 B), then
	// 800 B at 5 B/s -> 180s; full speed would be 100s.
	d, err := fs.WriteSize(0, "huge", 1000, Labels{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-180) > 1e-12 {
		t.Errorf("oversized write duration = %g, want 180", d)
	}
	r := fs.Ledger()[0]
	if math.Abs(r.StallSeconds-80) > 1e-12 || r.BBFill != 1 {
		t.Errorf("oversized record = %+v, want stall 80 fill 1", r)
	}
}

// TestBBDrainSlowerThanFillAccumulates: back-to-back bursts with no
// compute gap leak occupancy into each other until the partition fills —
// the cross-burst carry-over that distinguishes a burst buffer from a
// bandwidth cap.
func TestBBDrainSlowerThanFillAccumulates(t *testing.T) {
	fs := New(bbTestConfig(StorageBB), "")
	var lastFill float64
	for step := 0; step < 4; step++ {
		fs.BeginBurst(1)
		if _, err := fs.WriteSize(0, "w", 60, Labels{Step: step}); err != nil {
			t.Fatal(err)
		}
		fs.EndBurst()
		rec := fs.Ledger()
		r := rec[len(rec)-1]
		if step < 3 {
			if r.StallSeconds != 0 {
				t.Errorf("step %d stalled early: %+v", step, r)
			}
			if r.BBFill <= lastFill {
				t.Errorf("step %d occupancy did not grow: %g <= %g", step, r.BBFill, lastFill)
			}
			lastFill = r.BBFill
		} else if r.StallSeconds <= 0 || r.Tier != TierGPFS {
			// Occupancy 30/60/90 after steps 0-2; step 3's 30 B of
			// growth exceeds the 10 B of headroom.
			t.Errorf("step %d did not stall on the full partition: %+v", step, r)
		}
	}
}

// TestBBOneNodeDegenerate: without node information every rank shares a
// single node's partition — shares split by the burst width, and each
// rank's occupancy stays private (static partitioning).
func TestBBOneNodeDegenerate(t *testing.T) {
	cfg := bbTestConfig(StorageBB)
	cfg.BurstBuffer.RanksPerNode = 0 // derive from the burst
	fs := New(cfg, "")
	fs.BeginBurst(4) // 4 ranks on 1 node: 25 B, 2.5 B/s fill, 1.25 B/s drain each
	for r := 0; r < 4; r++ {
		// 50 B at fill 2.5 / drain 1.25: net growth 25 B = the whole
		// partition share, exactly at capacity with no stall.
		d, err := fs.WriteSize(r, "w", 50, Labels{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d-20) > 1e-12 {
			t.Errorf("rank %d duration = %g, want 20", r, d)
		}
	}
	fs.EndBurst()
	for _, r := range fs.Ledger() {
		if r.BBFill != 1 || r.StallSeconds != 0 {
			t.Errorf("rank %d record = %+v, want fill 1, no stall", r.Rank, r)
		}
	}
}

// TestBBShrunkenShareKeepsBacklog is the regression test for the
// occupancy-deletion bug: when a wider burst shrinks a rank's partition
// share below its buffered bytes, the surplus must persist (write-through
// consumes the whole drain) and keep draining between transfers — not be
// silently clamped to the new capacity.
func TestBBShrunkenShareKeepsBacklog(t *testing.T) {
	cfg := bbTestConfig(StorageBB)
	cfg.BurstBuffer.RanksPerNode = 0 // derive shares from the burst width
	fs := New(cfg, "")

	// 1-writer burst: the full 100 B / 10 B/s / 5 B/s node share.
	fs.BeginBurst(1)
	if _, err := fs.WriteSize(0, "a", 160, Labels{Step: 0}); err != nil {
		t.Fatal(err) // occupancy 80 B
	}
	fs.EndBurst()

	// 4-writer burst: rank 0's share shrinks to 25 B / 2.5 B/s / 1.25 B/s
	// while it still holds 80 B. The write moves write-through at the
	// drain rate (8 s for 10 B) and the backlog must survive.
	fs.BeginBurst(4)
	d, err := fs.WriteSize(0, "b", 10, Labels{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-8) > 1e-12 {
		t.Errorf("write-through duration = %g, want 8", d)
	}
	fs.EndBurst()
	rec := fs.Ledger()
	last := rec[len(rec)-1]
	// 80 B backlog at the 1.25 B/s share: 64 s of drain tail, fill 80/25.
	if math.Abs(last.DrainSeconds-64) > 1e-12 {
		t.Errorf("drain tail = %g, want 64 (backlog deleted?)", last.DrainSeconds)
	}
	if math.Abs(last.BBFill-3.2) > 1e-12 {
		t.Errorf("fill = %g, want 3.2 (overfull vs the shrunken share)", last.BBFill)
	}
}

// TestTieredDrainThrottledByGPFS: under "bb+gpfs" the drain is capped by
// the GPFS tier's per-writer snapshot, so a slow file system leaves more
// bytes in the buffer than the standalone "bb" drain would.
func TestTieredDrainThrottledByGPFS(t *testing.T) {
	run := func(storage string, perWriter float64) WriteRecord {
		cfg := bbTestConfig(storage)
		cfg.PerWriterBandwidth = perWriter
		fs := New(cfg, "")
		fs.BeginBurst(1)
		if _, err := fs.WriteSize(0, "w", 100, Labels{}); err != nil {
			t.Fatal(err)
		}
		fs.EndBurst()
		return fs.Ledger()[0]
	}

	// GPFS stream at 2 B/s < the configured 5 B/s drain: the tiered
	// stack drains slower -> more end-of-write occupancy, longer tail.
	bb := run(StorageBB, 2)
	tiered := run(StorageTiered, 2)
	if math.Abs(bb.BBFill-0.5) > 1e-12 || math.Abs(bb.DrainSeconds-10) > 1e-12 {
		t.Errorf("bb record = %+v, want fill 0.5 drain 10", bb)
	}
	if math.Abs(tiered.BBFill-0.8) > 1e-12 || math.Abs(tiered.DrainSeconds-40) > 1e-12 {
		t.Errorf("tiered record = %+v, want fill 0.8 drain 40", tiered)
	}

	// A fast file system (stream >= drain) makes the stacks identical.
	fast := run(StorageTiered, 1e12)
	if fast.BBFill != 0.5 || math.Abs(fast.DrainSeconds-10) > 1e-12 {
		t.Errorf("uncongested tiered record = %+v, want the bb numbers", fast)
	}
}

// TestRetargetValidation is the regression test for the blind-copy bug:
// maps that don't cover the declared burst, or send ranks to targets
// outside [0, Targets), are rejected instead of silently installed.
func TestRetargetValidation(t *testing.T) {
	cfg := Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 4e9,
		Topology: Topology{
			Nodes: 2, RanksPerNode: 2,
			Targets: 2, TargetBandwidth: 1e9,
		},
	}
	fs := New(cfg, "")

	// Before any burst the width is unknown: entries are still checked.
	if err := fs.Retarget([]int{0, 5}); err == nil || !strings.Contains(err.Error(), "target 5") {
		t.Errorf("out-of-range target before burst: err = %v", err)
	}
	if err := fs.Retarget([]int{1, 0}); err != nil {
		t.Errorf("valid pre-burst map rejected: %v", err)
	}

	fs.BeginBurst(4)
	fs.EndBurst()
	if err := fs.Retarget([]int{0, 1}); err == nil ||
		!strings.Contains(err.Error(), "covers 2 ranks") || !strings.Contains(err.Error(), "4") {
		t.Errorf("too-short map: err = %v", err)
	}
	if err := fs.Retarget([]int{0, 1, 0, -1}); err == nil || !strings.Contains(err.Error(), "-1") {
		t.Errorf("negative target: err = %v", err)
	}
	if err := fs.Retarget([]int{0, 1, 0, 2}); err == nil || !strings.Contains(err.Error(), "target 2") {
		t.Errorf("target == Targets: err = %v", err)
	}
	if err := fs.Retarget([]int{1, 1, 0, 0}); err != nil {
		t.Errorf("valid full map rejected: %v", err)
	}
	if err := fs.Retarget(nil); err != nil {
		t.Errorf("nil map rejected: %v", err)
	}

	// Without target modeling Retarget stays the documented no-op.
	plain := New(Config{AggregateBandwidth: 1e12, PerWriterBandwidth: 4e9}, "")
	if err := plain.Retarget([]int{99}); err != nil {
		t.Errorf("no-op retarget errored: %v", err)
	}
}

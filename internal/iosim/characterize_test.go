package iosim

import (
	"math"
	"strings"
	"testing"
)

func TestCharacterizeEmpty(t *testing.T) {
	c := Characterize(nil)
	if c.TotalBytes != 0 || c.TotalWrites != 0 {
		t.Errorf("empty characterization = %+v", c)
	}
}

func TestCharacterizeBasics(t *testing.T) {
	fs := modelFS()
	fs.WriteSize(0, "a", 1024, Labels{Step: 0})
	fs.WriteSize(1, "b", 2048, Labels{Step: 0})
	fs.WriteSize(0, "c", 4096, Labels{Step: 10})
	c := Characterize(fs.Ledger())
	if c.TotalBytes != 7168 || c.TotalWrites != 3 || c.UniqueFiles != 3 || c.Ranks != 2 {
		t.Errorf("characterization = %+v", c)
	}
	if c.MinWrite != 1024 || c.MaxWrite != 4096 {
		t.Errorf("min/max = %d/%d", c.MinWrite, c.MaxWrite)
	}
	if c.P50Write != 2048 {
		t.Errorf("p50 = %d", c.P50Write)
	}
	// Rank 0 wrote 5120 of 7168 -> imbalance = 5120 / 3584.
	want := 5120.0 / 3584.0
	if math.Abs(c.RankImbalance-want) > 1e-12 {
		t.Errorf("imbalance = %g, want %g", c.RankImbalance, want)
	}
	if c.Bursts != 2 {
		t.Errorf("bursts = %d", c.Bursts)
	}
}

func TestCharacterizeSizeHistogram(t *testing.T) {
	fs := modelFS()
	fs.WriteSize(0, "a", 1, Labels{})    // bucket 0
	fs.WriteSize(0, "b", 2, Labels{})    // bucket 1
	fs.WriteSize(0, "c", 3, Labels{})    // bucket 1 (floor log2)
	fs.WriteSize(0, "d", 4096, Labels{}) // bucket 12
	c := Characterize(fs.Ledger())
	if c.SizeHistogram[0] != 1 || c.SizeHistogram[1] != 2 || c.SizeHistogram[12] != 1 {
		t.Errorf("histogram = %v", c.SizeHistogram)
	}
}

func TestSizeBucket(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10}
	for n, want := range cases {
		if got := sizeBucket(n); got != want {
			t.Errorf("sizeBucket(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCharacterizeInterArrival(t *testing.T) {
	fs := modelFS()
	// Three bursts separated by 1s of compute each.
	for step := 0; step < 3; step++ {
		fs.AdvanceClock(0, 1.0)
		fs.WriteSize(0, "f", 100, Labels{Step: step})
	}
	c := Characterize(fs.Ledger())
	if c.Bursts != 3 {
		t.Fatalf("bursts = %d", c.Bursts)
	}
	if c.MeanInterArrival < 1.0 {
		t.Errorf("inter-arrival = %g, want >= 1", c.MeanInterArrival)
	}
	if c.AggregateBandwith <= 0 {
		t.Error("bandwidth not computed")
	}
}

func TestCharacterizationRender(t *testing.T) {
	fs := modelFS()
	fs.WriteSize(0, "a", 1024, Labels{Step: 0})
	fs.WriteSize(1, "b", 2048, Labels{Step: 1})
	out := Characterize(fs.Ledger()).Render()
	for _, want := range []string{"total bytes", "write ops", "rank imbalance", "size histogram", "bursts"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestFoldConsumeAllocations: once a record's step, rank, link, size and
// path are in the fold's tables, folding another such record allocates
// nothing — every table is updated in place.
func TestFoldConsumeAllocations(t *testing.T) {
	r := WriteRecord{
		Rank: 3, Path: "plt00010/Level_0/Cell_D_00003", Bytes: 1 << 20,
		Start: 1, Duration: 0.5, Labels: Labels{Step: 10},
		Node: 1, Target: 2, Tier: TierBB, StallSeconds: 0.1, DrainSeconds: 0.2, BBFill: 0.3,
		Fault: "nic-degrade", Retries: 1, FaultSeconds: 0.05,
		GatherSeconds: 0.01, OpenSeconds: 0.02,
	}
	f := NewCharacterizeFold()
	f.Consume(r)
	if allocs := testing.AllocsPerRun(100, func() { f.Consume(r) }); allocs != 0 {
		t.Errorf("Consume of a known record made %.1f allocations, want 0", allocs)
	}
}

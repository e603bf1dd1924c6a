package amr

import (
	"math/rand"
	"sort"
	"testing"

	"amrproxyio/internal/grid"
)

func domain128() grid.Box { return grid.NewBox(grid.IV(0, 0), grid.IV(127, 127)) }

func TestSingleBoxArrayCoversDomain(t *testing.T) {
	dom := domain128()
	ba := SingleBoxArray(dom, 32, 8)
	if ba.NumPts() != dom.NumPts() {
		t.Errorf("cells = %d, want %d", ba.NumPts(), dom.NumPts())
	}
	if !ba.IsDisjoint() {
		t.Error("boxes overlap")
	}
	if !ba.ContainsBox(dom) {
		t.Error("union does not cover the domain")
	}
	for _, b := range ba.Boxes {
		s := b.Size()
		if s.X > 32 || s.Y > 32 {
			t.Errorf("box %v exceeds max grid size", b)
		}
	}
	if ba.Len() != 16 {
		t.Errorf("expected 16 boxes of 32x32, got %d", ba.Len())
	}
}

func TestBoxArrayContains(t *testing.T) {
	ba := NewBoxArray([]grid.Box{
		grid.NewBox(grid.IV(0, 0), grid.IV(3, 3)),
		grid.NewBox(grid.IV(8, 8), grid.IV(11, 11)),
	})
	if ba.ContainsBox(grid.NewBox(grid.IV(0, 0), grid.IV(5, 5))) {
		t.Error("ContainsBox false positive across gap")
	}
	if !ba.ContainsBox(grid.NewBox(grid.IV(1, 1), grid.IV(2, 3))) {
		t.Error("ContainsBox false negative")
	}
}

func TestBoxArrayComplement(t *testing.T) {
	region := grid.NewBox(grid.IV(0, 0), grid.IV(9, 9))
	ba := NewBoxArray([]grid.Box{grid.NewBox(grid.IV(0, 0), grid.IV(4, 9))})
	comp := ba.Complement(region)
	var total int64
	for _, b := range comp {
		total += b.NumPts()
	}
	if total != 50 {
		t.Errorf("complement cells = %d, want 50", total)
	}
	full := SingleBoxArray(region, 4, 1)
	if rest := full.Complement(region); len(rest) != 0 {
		t.Errorf("full cover complement = %v", rest)
	}
}

func TestBoxArrayIntersections(t *testing.T) {
	ba := SingleBoxArray(domain128(), 64, 8)
	probe := grid.NewBox(grid.IV(60, 60), grid.IV(70, 70))
	isects := ba.Intersections(probe)
	var total int64
	for _, is := range isects {
		total += is.Box.NumPts()
	}
	if total != probe.NumPts() {
		t.Errorf("intersection cells = %d, want %d", total, probe.NumPts())
	}
	if len(isects) != 4 {
		t.Errorf("expected 4 overlapping quadrants, got %d", len(isects))
	}
}

func TestRefineCoarsenBoxArray(t *testing.T) {
	ba := SingleBoxArray(domain128(), 32, 8)
	fine := ba.Refine(2)
	if fine.NumPts() != 4*ba.NumPts() {
		t.Errorf("refine cells = %d", fine.NumPts())
	}
	back := fine.Coarsen(2)
	if back.NumPts() != ba.NumPts() {
		t.Errorf("coarsen cells = %d", back.NumPts())
	}
}

func TestDistributeRoundRobin(t *testing.T) {
	ba := SingleBoxArray(domain128(), 32, 8) // 16 boxes
	dm := MustDistribute(ba, 4, DistRoundRobin)
	for i, o := range dm.Owner {
		if o != i%4 {
			t.Errorf("owner[%d] = %d", i, o)
		}
	}
	if got := len(dm.RankBoxes(1)); got != 4 {
		t.Errorf("rank 1 owns %d boxes", got)
	}
}

func TestDistributeKnapsackBalances(t *testing.T) {
	// Mixed box sizes: knapsack should spread total cells well.
	boxes := []grid.Box{
		grid.BoxFromSize(grid.IV(0, 0), grid.IV(64, 64)),
		grid.BoxFromSize(grid.IV(100, 0), grid.IV(32, 32)),
		grid.BoxFromSize(grid.IV(200, 0), grid.IV(32, 32)),
		grid.BoxFromSize(grid.IV(300, 0), grid.IV(32, 32)),
		grid.BoxFromSize(grid.IV(400, 0), grid.IV(32, 32)),
		grid.BoxFromSize(grid.IV(500, 0), grid.IV(16, 16)),
		grid.BoxFromSize(grid.IV(600, 0), grid.IV(16, 16)),
	}
	ba := NewBoxArray(boxes)
	dm := MustDistribute(ba, 2, DistKnapsack)
	load := dm.LoadPerRank(ba, 2)
	// Greedy knapsack achieves a perfect split here: 64^2 + 16^2 on one
	// rank, 4*32^2 + 16^2 on the other (4352 cells each).
	if load[0]+load[1] != 64*64+4*32*32+2*16*16 {
		t.Errorf("total load = %d", load[0]+load[1])
	}
	big, small := load[0], load[1]
	if small > big {
		big, small = small, big
	}
	if big-small > 16*16 {
		t.Errorf("knapsack imbalance = %d cells (loads %v)", big-small, load)
	}
	// Round-robin on the same input is measurably worse, demonstrating why
	// knapsack matters for the Fig. 8 per-task distribution.
	rr := MustDistribute(ba, 2, DistRoundRobin).LoadPerRank(ba, 2)
	rrGap := rr[0] - rr[1]
	if rrGap < 0 {
		rrGap = -rrGap
	}
	if rrGap <= big-small {
		t.Errorf("expected round-robin gap (%d) to exceed knapsack gap (%d)", rrGap, big-small)
	}
}

func TestDistributeSFCContiguity(t *testing.T) {
	ba := SingleBoxArray(domain128(), 16, 8) // 64 boxes in a grid
	dm := MustDistribute(ba, 8, DistSFC)
	load := dm.LoadPerRank(ba, 8)
	for r, l := range load {
		if l == 0 {
			t.Errorf("rank %d got no boxes", r)
		}
	}
	// Equal-size boxes: perfect balance expected (64/8 boxes each).
	for r, l := range load {
		if l != 8*16*16 {
			t.Errorf("rank %d load = %d, want %d", r, l, 8*16*16)
		}
	}
}

func TestDistributeAllRanksUsedWhenEnoughBoxes(t *testing.T) {
	ba := SingleBoxArray(domain128(), 16, 8)
	for _, strat := range []DistStrategy{DistRoundRobin, DistKnapsack, DistSFC} {
		dm := MustDistribute(ba, 8, strat)
		used := map[int]bool{}
		for _, o := range dm.Owner {
			if o < 0 || o >= 8 {
				t.Fatalf("%v: owner out of range: %d", strat, o)
			}
			used[o] = true
		}
		if len(used) != 8 {
			t.Errorf("%v: only %d ranks used", strat, len(used))
		}
	}
}

func TestDistributeMoreRanksThanBoxes(t *testing.T) {
	ba := SingleBoxArray(grid.NewBox(grid.IV(0, 0), grid.IV(31, 31)), 32, 8)
	if ba.Len() != 1 {
		t.Fatalf("setup: %d boxes", ba.Len())
	}
	for _, strat := range []DistStrategy{DistRoundRobin, DistKnapsack, DistSFC} {
		dm := MustDistribute(ba, 16, strat)
		if len(dm.Owner) != 1 {
			t.Errorf("%v: owners = %v", strat, dm.Owner)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if DistRoundRobin.String() != "roundrobin" || DistKnapsack.String() != "knapsack" || DistSFC.String() != "sfc" {
		t.Error("strategy names wrong")
	}
}

func TestParseDistStrategy(t *testing.T) {
	for _, s := range DistStrategies() {
		got, err := ParseDistStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseDistStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseDistStrategy("zorder"); err == nil {
		t.Error("unknown strategy name accepted")
	}
}

func TestDistributeUnknownStrategyErrors(t *testing.T) {
	ba := SingleBoxArray(domain128(), 32, 8)
	if _, err := Distribute(ba, 4, DistStrategy(99)); err == nil {
		t.Error("unknown strategy did not error")
	}
}

// TestDistributeSFCNegativeDomain is the Morton sign-bias regression: on
// a domain with a negative lo corner, the space-filling curve must stay
// contiguous across the origin. Before the fix, uint32 truncation sent
// negative box centers to the top of the code range, so the rank chunks
// tore at x=0 (rank 1 owned the two *ends* of the row).
func TestDistributeSFCNegativeDomain(t *testing.T) {
	boxes := []grid.Box{
		grid.NewBox(grid.IV(-8, 0), grid.IV(-1, 7)),
		grid.NewBox(grid.IV(0, 0), grid.IV(7, 7)),
		grid.NewBox(grid.IV(8, 0), grid.IV(15, 7)),
		grid.NewBox(grid.IV(16, 0), grid.IV(23, 7)),
	}
	dm := MustDistribute(NewBoxArray(boxes), 2, DistSFC)
	// Boxes are listed left to right: owners must be non-decreasing along
	// x (each rank a contiguous run of the row).
	want := []int{0, 0, 1, 1}
	for i, o := range dm.Owner {
		if o != want[i] {
			t.Fatalf("owners = %v, want %v (SFC torn at the origin)", dm.Owner, want)
		}
	}
}

// TestDistributeSFCZeroCellBoxes covers the total==0 degeneracy: with the
// old load-cut, perRank was 0 and every box advanced the rank, leaving
// rank 0 empty and the last rank with nearly everything.
func TestDistributeSFCZeroCellBoxes(t *testing.T) {
	boxes := make([]grid.Box, 8)
	for i := range boxes {
		// Empty boxes (hi < lo): NumPts() == 0.
		boxes[i] = grid.NewBox(grid.IV(i*8, 0), grid.IV(i*8-1, -1))
	}
	dm := MustDistribute(NewBoxArray(boxes), 4, DistSFC)
	counts := make([]int, 4)
	for _, o := range dm.Owner {
		if o < 0 || o >= 4 {
			t.Fatalf("owner out of range: %v", dm.Owner)
		}
		counts[o]++
	}
	for r, c := range counts {
		if c != 2 {
			t.Fatalf("zero-cell mapping unbalanced: rank %d owns %d boxes (%v)", r, c, counts)
		}
	}
}

// TestDistributeEveryRankOwnsBox asserts the coverage guarantee: whenever
// n >= nprocs every rank owns at least one box, for every strategy, even
// under heavily skewed or zero box sizes.
func TestDistributeEveryRankOwnsBox(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 80; iter++ {
		nb := rng.Intn(40) + 1
		nprocs := rng.Intn(nb) + 1 // nprocs <= nb
		boxes := make([]grid.Box, nb)
		for i := range boxes {
			lo := grid.IV(rng.Intn(200)-100, rng.Intn(200)-100)
			switch rng.Intn(4) {
			case 0: // zero-cell box
				boxes[i] = grid.NewBox(lo, lo.Add(grid.IV(-1, -1)))
			case 1: // huge box
				boxes[i] = grid.BoxFromSize(lo, grid.IV(128, 128))
			default: // small box
				boxes[i] = grid.BoxFromSize(lo, grid.IV(rng.Intn(8)+1, rng.Intn(8)+1))
			}
		}
		ba := NewBoxArray(boxes)
		for _, strat := range DistStrategies() {
			dm := MustDistribute(ba, nprocs, strat)
			owned := make([]int, nprocs)
			for _, o := range dm.Owner {
				owned[o]++
			}
			for r, c := range owned {
				if c == 0 {
					t.Fatalf("iter %d %v: rank %d of %d owns no box (nb=%d, owners=%v)",
						iter, strat, r, nprocs, nb, dm.Owner)
				}
			}
		}
	}
}

// TestDistributeDeterministic: the same inputs always produce the same
// owner vector (campaign results must be reproducible across runs).
func TestDistributeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var boxes []grid.Box
	for i := 0; i < 50; i++ {
		lo := grid.IV(rng.Intn(400)-200, rng.Intn(400)-200)
		boxes = append(boxes, grid.BoxFromSize(lo, grid.IV(8*(rng.Intn(4)+1), 8*(rng.Intn(4)+1))))
	}
	ba := NewBoxArray(boxes)
	for _, strat := range DistStrategies() {
		a := MustDistribute(ba, 7, strat)
		b := MustDistribute(NewBoxArray(append([]grid.Box(nil), boxes...)), 7, strat)
		for i := range a.Owner {
			if a.Owner[i] != b.Owner[i] {
				t.Fatalf("%v: non-deterministic at box %d", strat, i)
			}
		}
	}
}

// TestDistributeSFCLocality: boxes adjacent on the curve land on the same
// or adjacent ranks — the property that makes SFC placements cheap for
// nearest-neighbor exchange.
func TestDistributeSFCLocality(t *testing.T) {
	ba := SingleBoxArray(grid.NewBox(grid.IV(-64, -64), grid.IV(63, 63)), 16, 8) // 64 boxes straddling the origin
	nprocs := 8
	dm := MustDistribute(ba, nprocs, DistSFC)
	// Recover curve order the same way Distribute does.
	type item struct {
		idx  int
		code uint64
	}
	items := make([]item, ba.Len())
	for i, b := range ba.Boxes {
		c := b.Lo.Add(b.Hi)
		items[i] = item{idx: i, code: grid.Morton(c.X, c.Y)}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].code < items[b].code })
	prev := dm.Owner[items[0].idx]
	if prev != 0 {
		t.Fatalf("curve start owned by rank %d, want 0", prev)
	}
	for _, it := range items[1:] {
		o := dm.Owner[it.idx]
		if o != prev && o != prev+1 {
			t.Fatalf("curve-adjacent boxes on ranks %d -> %d (not contiguous)", prev, o)
		}
		prev = o
	}
	if prev != nprocs-1 {
		t.Fatalf("curve ends at rank %d, want %d", prev, nprocs-1)
	}
}

// TestDistributeKnapsackNeverWorseThanRoundRobin pins the load-balance
// ordering the Fig. 8 ablation relies on: over random skewed inputs the
// knapsack max load never exceeds round-robin's.
func TestDistributeKnapsackNeverWorseThanRoundRobin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	maxLoad := func(dm DistributionMapping, ba BoxArray, nprocs int) int64 {
		var m int64
		for _, l := range dm.LoadPerRank(ba, nprocs) {
			if l > m {
				m = l
			}
		}
		return m
	}
	for iter := 0; iter < 60; iter++ {
		nb := rng.Intn(30) + 2
		var boxes []grid.Box
		for i := 0; i < nb; i++ {
			lo := grid.IV(i*200, 0)
			edge := 1 << (rng.Intn(6) + 1) // 2..64: heavy skew
			boxes = append(boxes, grid.BoxFromSize(lo, grid.IV(edge, edge)))
		}
		ba := NewBoxArray(boxes)
		nprocs := rng.Intn(8) + 1
		ks := maxLoad(MustDistribute(ba, nprocs, DistKnapsack), ba, nprocs)
		rr := maxLoad(MustDistribute(ba, nprocs, DistRoundRobin), ba, nprocs)
		if ks > rr {
			t.Fatalf("iter %d: knapsack max load %d > round-robin %d", iter, ks, rr)
		}
	}
}

package amr

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"amrproxyio/internal/grid"
	"amrproxyio/internal/iosim"
)

// The greedy placements pick their bin from a min-heap. The references
// below are the linear scans they replaced, kept to show the heap picks
// the same bin on every step: least load, then fewest items, then the
// lowest id.

func scanKnapsack(ba BoxArray, nprocs int) []int {
	type item struct {
		idx int
		pts int64
	}
	items := make([]item, ba.Len())
	for i, b := range ba.Boxes {
		items[i] = item{idx: i, pts: b.NumPts()}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].pts != items[b].pts {
			return items[a].pts > items[b].pts
		}
		return items[a].idx < items[b].idx
	})
	owner := make([]int, len(items))
	load := make([]int64, nprocs)
	count := make([]int, nprocs)
	for _, it := range items {
		best := 0
		for r := 1; r < nprocs; r++ {
			if load[r] < load[best] || (load[r] == load[best] && count[r] < count[best]) {
				best = r
			}
		}
		owner[it.idx] = best
		load[best] += it.pts
		count[best]++
	}
	return owner
}

// scanLPT is the remaps' LPT over the given targets (ascending), by scan.
func scanLPT(dm DistributionMapping, loads []int64, targets []int, nTargets int) (out []int, targetLoad []int64) {
	nprocs := 0
	for _, o := range dm.Owner {
		if o+1 > nprocs {
			nprocs = o + 1
		}
	}
	if nprocs == 0 {
		return nil, nil
	}
	perRank := make([]int64, nprocs)
	for i, o := range dm.Owner {
		if o >= 0 && i < len(loads) {
			perRank[o] += loads[i]
		}
	}
	order := make([]int, nprocs)
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(a, b int) bool { return perRank[order[a]] > perRank[order[b]] })
	targetLoad = make([]int64, nTargets)
	targetRanks := make([]int, nTargets)
	out = make([]int, nprocs)
	for _, r := range order {
		best := targets[0]
		for _, tgt := range targets[1:] {
			if targetLoad[tgt] < targetLoad[best] ||
				(targetLoad[tgt] == targetLoad[best] && targetRanks[tgt] < targetRanks[best]) {
				best = tgt
			}
		}
		out[r] = best
		targetLoad[best] += perRank[r]
		targetRanks[best]++
	}
	return out, targetLoad
}

func scanRemap(dm DistributionMapping, topo iosim.Topology, loads []int64) []int {
	if !topo.Enabled() || topo.Targets <= 0 || len(dm.Owner) == 0 {
		return nil
	}
	all := make([]int, topo.Targets)
	for i := range all {
		all[i] = i
	}
	out, targetLoad := scanLPT(dm, loads, all, topo.Targets)
	if out == nil {
		return nil
	}
	perRank := make([]int64, len(out))
	for i, o := range dm.Owner {
		if o >= 0 && i < len(loads) {
			perRank[o] += loads[i]
		}
	}
	if slices.Max(targetLoad) >= maxLoad(FanInLoads(perRank, nil, topo.Targets)) {
		return nil
	}
	return out
}

func scanRemapAvoiding(dm DistributionMapping, topo iosim.Topology, loads []int64, avoid map[int]bool) []int {
	if len(avoid) == 0 {
		return scanRemap(dm, topo, loads)
	}
	if !topo.Enabled() || topo.Targets <= 0 || len(dm.Owner) == 0 {
		return nil
	}
	var healthy []int
	for tgt := 0; tgt < topo.Targets; tgt++ {
		if !avoid[tgt] {
			healthy = append(healthy, tgt)
		}
	}
	if len(healthy) == 0 {
		return scanRemap(dm, topo, loads)
	}
	out, _ := scanLPT(dm, loads, healthy, topo.Targets)
	return out
}

// randomBoxArray draws n boxes from a few sizes, so equal loads (and the
// count and index tie-breaks) are common; about one box in six has zero
// cells.
func randomBoxArray(rng *rand.Rand, n int) BoxArray {
	boxes := make([]grid.Box, n)
	for i := range boxes {
		w, h := 1<<rng.Intn(4), 1<<rng.Intn(4)
		if rng.Intn(6) == 0 {
			w = 0
		}
		boxes[i] = grid.BoxFromSize(grid.IV(16*i, 0), grid.IV(w, h))
	}
	return NewBoxArray(boxes)
}

func TestKnapsackMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(80)
		var nprocs int
		switch iter % 4 {
		case 0:
			nprocs = 1
		case 1:
			nprocs = 1 + rng.Intn(max(n, 1)) // at or below the box count
		case 2:
			nprocs = n + 1 + rng.Intn(40) // above it
		default:
			nprocs = 1 + rng.Intn(200)
		}
		ba := randomBoxArray(rng, n)
		dm := MustDistribute(ba, nprocs, DistKnapsack)
		if want := scanKnapsack(ba, nprocs); !slices.Equal(dm.Owner, want) {
			t.Fatalf("iter %d (%d boxes, %d ranks): owner\n%v\nwant\n%v", iter, n, nprocs, dm.Owner, want)
		}
	}
}

func TestRemapsMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	var remapped, avoided int
	for iter := 0; iter < 600; iter++ {
		nprocs := 1 + rng.Intn(48)
		targets := 1 + rng.Intn(12)
		nb := rng.Intn(3 * nprocs)
		owner := make([]int, nb)
		loads := make([]int64, nb)
		for i := range owner {
			owner[i] = rng.Intn(nprocs)
			if rng.Intn(10) == 0 {
				owner[i] = -1 // an unowned box
			}
			loads[i] = int64(rng.Intn(1 << rng.Intn(8)))
		}
		if rng.Intn(8) == 0 {
			loads = loads[:rng.Intn(len(loads)+1)] // fewer loads than boxes
		}
		dm := DistributionMapping{Owner: owner}
		topo := topoWithTargets(targets)
		if rng.Intn(20) == 0 {
			topo = iosim.Topology{}
		}
		avoid := map[int]bool{}
		for k := rng.Intn(targets + 2); k > 0; k-- {
			avoid[rng.Intn(targets+2)-1] = rng.Intn(5) > 0 // out-of-range ids and false entries too
		}

		got, want := RemapToTargets(dm, topo, loads), scanRemap(dm, topo, loads)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("iter %d: RemapToTargets = %v, want %v", iter, got, want)
		}
		if got != nil {
			remapped++
		}
		got, want = RemapToTargetsAvoiding(dm, topo, loads, avoid), scanRemapAvoiding(dm, topo, loads, avoid)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("iter %d: RemapToTargetsAvoiding(avoid %v) = %v, want %v", iter, avoid, got, want)
		}
		if got != nil && len(avoid) > 0 {
			avoided++
		}
	}
	if remapped < 50 || avoided < 50 {
		t.Fatalf("too few non-nil maps to compare: %d remapped, %d avoiding", remapped, avoided)
	}
}

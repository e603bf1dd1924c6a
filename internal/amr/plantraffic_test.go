package amr

import (
	"reflect"
	"testing"

	"amrproxyio/internal/grid"
)

// naivePairTraffic is the uncached all-pairs reference for
// FillBoundaryTraffic: every (src valid, dst ghost) overlap attributed to
// the owner rank pair.
func naivePairTraffic(ba BoxArray, dm DistributionMapping, nghost, ncomp int) map[[2]int]int64 {
	vol := map[[2]int]int64{}
	for di, db := range ba.Boxes {
		dg := db.Grow(nghost)
		for si, sb := range ba.Boxes {
			if si == di {
				continue
			}
			ov := dg.Intersect(sb)
			if ov.IsEmpty() {
				continue
			}
			vol[[2]int{dm.Owner[si], dm.Owner[di]}] += ov.NumPts() * int64(ncomp) * 8
		}
	}
	return vol
}

func TestFillBoundaryTrafficMatchesNaive(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(31, 31))
	ba := SingleBoxArray(dom, 8, 8)
	for _, nprocs := range []int{1, 3, 4, 16} {
		dm := MustDistribute(ba, nprocs, DistKnapsack)
		got := FillBoundaryTraffic(ba, dm, 2, 4)
		want := naivePairTraffic(ba, dm, 2, 4)
		gotMap := map[[2]int]int64{}
		var lastSrc, lastDst = -1, -1
		for _, p := range got {
			if p.Src < lastSrc || (p.Src == lastSrc && p.Dst <= lastDst) {
				t.Fatalf("nprocs=%d: traffic not sorted by (src, dst)", nprocs)
			}
			lastSrc, lastDst = p.Src, p.Dst
			gotMap[[2]int{p.Src, p.Dst}] = p.Bytes
		}
		if !reflect.DeepEqual(gotMap, want) {
			t.Fatalf("nprocs=%d: traffic = %v, want %v", nprocs, gotMap, want)
		}
	}
}

func TestFillBoundaryTrafficCachedPerMapping(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(15, 15))
	ba := SingleBoxArray(dom, 8, 8)
	dmA := MustDistribute(ba, 2, DistRoundRobin)
	dmB := MustDistribute(ba, 4, DistRoundRobin)

	first := FillBoundaryTraffic(ba, dmA, 1, 2)
	_, missBefore := PlanCacheStats()
	again := FillBoundaryTraffic(ba, dmA, 1, 2)
	_, missAfter := PlanCacheStats()
	if missAfter != missBefore {
		t.Error("identical (boxes, owners, params) recomputed instead of hitting the cache")
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("cache replay returned different traffic")
	}

	// A different distribution over the same boxes is a different key.
	other := FillBoundaryTraffic(ba, dmB, 1, 2)
	if reflect.DeepEqual(first, other) {
		t.Error("different distribution mappings produced identical rank-pair traffic")
	}

	// Local copies carry Src == Dst; TotalTraffic can exclude them.
	withLocal := TotalTraffic(first, true)
	wireOnly := TotalTraffic(first, false)
	if withLocal < wireOnly {
		t.Errorf("TotalTraffic: local-inclusive %d < wire-only %d", withLocal, wireOnly)
	}
}

// exchangeVolume is the off-rank byte volume of one ghost exchange on
// (ba, dm).
func exchangeVolume(ba BoxArray, dm DistributionMapping, nghost, ncomp int) int64 {
	return TotalTraffic(FillBoundaryTraffic(ba, dm, nghost, ncomp), false)
}

func TestExchangeVolume(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(15, 15))
	ba := SingleBoxArray(dom, 8, 8)
	// All boxes on one rank: zero off-rank volume.
	if v := exchangeVolume(ba, MustDistribute(ba, 1, DistRoundRobin), 2, 2); v != 0 {
		t.Errorf("single-rank volume = %d", v)
	}
	// Spread over 4 ranks: every neighbor overlap crosses ranks, and the
	// volume is the naive all-pairs reference's off-rank total.
	dm := MustDistribute(ba, 4, DistRoundRobin)
	var want int64
	for pair, bytes := range naivePairTraffic(ba, dm, 2, 2) {
		if pair[0] != pair[1] {
			want += bytes
		}
	}
	if v := exchangeVolume(ba, dm, 2, 2); v <= 0 || v != want {
		t.Errorf("4-rank volume = %d, naive %d", v, want)
	}
}

func TestExchangeVolumeDependsOnMapping(t *testing.T) {
	// SFC keeps neighbors on the same rank more often than round-robin on
	// a regular grid, so its off-rank exchange volume must not exceed
	// round-robin's.
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(63, 63))
	ba := SingleBoxArray(dom, 8, 8) // 64 boxes
	rr := exchangeVolume(ba, MustDistribute(ba, 8, DistRoundRobin), 1, 1)
	sfc := exchangeVolume(ba, MustDistribute(ba, 8, DistSFC), 1, 1)
	if sfc > rr {
		t.Errorf("SFC volume %d > round-robin volume %d", sfc, rr)
	}
}

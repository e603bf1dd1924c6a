package amr

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"amrproxyio/internal/grid"
)

// Naive O(N^2) reference implementations of every indexed hot path. The
// property tests below assert that the BoxIndex and plan-replay fast paths
// produce byte-identical field state on randomized BoxArrays, including
// one fine MultiFab paired with coarse partners of changing boxes (a
// stale plan replayed against new grids would corrupt the comparison
// immediately).

// naiveFillBoundary is the historical all-pairs ghost fill.
func naiveFillBoundary(mf *MultiFab) {
	for di, dst := range mf.FABs {
		for si, src := range mf.FABs {
			if si == di {
				continue
			}
			overlap := dst.DataBox.Intersect(src.ValidBox)
			if overlap.IsEmpty() {
				continue
			}
			dst.CopyFrom(src, overlap)
		}
	}
}

// naiveExchangePairs is the historical all-pairs plan construction.
func naiveExchangePairs(mf *MultiFab) []copyPair {
	var pairs []copyPair
	for di, df := range mf.FABs {
		for si, sf := range mf.FABs {
			if si == di {
				continue
			}
			overlap := df.DataBox.Intersect(sf.ValidBox)
			if overlap.IsEmpty() {
				continue
			}
			pairs = append(pairs, copyPair{srcIdx: si, dstIdx: di, region: overlap})
		}
	}
	// The historical deterministic wire order.
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].srcIdx != pairs[b].srcIdx {
			return pairs[a].srcIdx < pairs[b].srcIdx
		}
		return pairs[a].dstIdx < pairs[b].dstIdx
	})
	return pairs
}

// naiveCopyInto is the historical all-pairs hierarchy swap copy.
func naiveCopyInto(src, dst *MultiFab) {
	for _, df := range dst.FABs {
		for _, sf := range src.FABs {
			overlap := df.DataBox.Intersect(sf.ValidBox)
			if !overlap.IsEmpty() {
				df.CopyFrom(sf, overlap)
			}
		}
	}
}

// naiveAverageDown is the historical all-pairs restriction.
func naiveAverageDown(crse, fine *MultiFab, ratio int) {
	inv := 1.0 / float64(ratio*ratio)
	for _, cf := range crse.FABs {
		for _, ff := range fine.FABs {
			overlap := cf.ValidBox.Intersect(ff.ValidBox.Coarsen(ratio))
			if overlap.IsEmpty() {
				continue
			}
			for c := 0; c < crse.NComp; c++ {
				for j := overlap.Lo.Y; j <= overlap.Hi.Y; j++ {
					for i := overlap.Lo.X; i <= overlap.Hi.X; i++ {
						var s float64
						for dj := 0; dj < ratio; dj++ {
							for di := 0; di < ratio; di++ {
								s += ff.At(i*ratio+di, j*ratio+dj, c)
							}
						}
						cf.Set(i, j, c, s*inv)
					}
				}
			}
		}
	}
}

// naiveClampedLookup is the historical linear-scan coarse lookup.
func naiveClampedLookup(mf *MultiFab) coarseLookup {
	return func(i, j, comp int) float64 {
		p := grid.IntVect{X: i, Y: j}
		for _, f := range mf.FABs {
			if f.ValidBox.Contains(p) {
				return f.At(i, j, comp)
			}
		}
		for _, f := range mf.FABs {
			if f.DataBox.Contains(p) {
				return f.At(i, j, comp)
			}
		}
		best := math.MaxInt
		var bi, bj int
		var bf *FAB
		for _, f := range mf.FABs {
			ci := clamp(i, f.ValidBox.Lo.X, f.ValidBox.Hi.X)
			cj := clamp(j, f.ValidBox.Lo.Y, f.ValidBox.Hi.Y)
			d := (ci-i)*(ci-i) + (cj-j)*(cj-j)
			if d < best {
				best, bi, bj, bf = d, ci, cj, f
			}
		}
		if bf == nil {
			return 0
		}
		return bf.At(bi, bj, comp)
	}
}

// naiveInterpRegion mirrors InterpRegion with the scanning lookup.
func naiveInterpRegion(fine *FAB, crse *MultiFab, region grid.Box, ratio int, kind InterpKind) {
	look := naiveClampedLookup(crse)
	for c := 0; c < fine.NComp; c++ {
		for j := region.Lo.Y; j <= region.Hi.Y; j++ {
			for i := region.Lo.X; i <= region.Hi.X; i++ {
				fine.Set(i, j, c, interpCell(kind, look, i, j, c, ratio))
			}
		}
	}
}

// naiveFillPatch is the historical FillPatch: naive ghost fill, then the
// subtract-every-valid-box coarse-region computation, then physical BCs.
func naiveFillPatch(fine, crse *MultiFab, fineDomain grid.Box, ratio int, kind InterpKind) {
	naiveFillBoundary(fine)
	if crse != nil {
		for _, df := range fine.FABs {
			needed := []grid.Box{df.DataBox.Intersect(fineDomain)}
			for _, vb := range fine.BA.Boxes {
				var next []grid.Box
				for _, r := range needed {
					next = append(next, r.Difference(vb)...)
				}
				needed = next
				if len(needed) == 0 {
					break
				}
			}
			for _, r := range needed {
				naiveInterpRegion(df, crse, r, ratio, kind)
			}
		}
	}
	FillOutflowBC(fine, fineDomain)
}

// randomTiling builds a disjoint BoxArray by cutting region into random
// rows and columns and keeping each tile with probability keep.
func randomTiling(rng *rand.Rand, region grid.Box, keep float64) BoxArray {
	cutsX := []int{region.Lo.X}
	for x := region.Lo.X; x <= region.Hi.X; {
		x += rng.Intn(17) + 4
		if x > region.Hi.X {
			break
		}
		cutsX = append(cutsX, x)
	}
	cutsX = append(cutsX, region.Hi.X+1)
	cutsY := []int{region.Lo.Y}
	for y := region.Lo.Y; y <= region.Hi.Y; {
		y += rng.Intn(17) + 4
		if y > region.Hi.Y {
			break
		}
		cutsY = append(cutsY, y)
	}
	cutsY = append(cutsY, region.Hi.Y+1)
	var boxes []grid.Box
	for yi := 0; yi+1 < len(cutsY); yi++ {
		for xi := 0; xi+1 < len(cutsX); xi++ {
			if rng.Float64() > keep {
				continue
			}
			boxes = append(boxes, grid.NewBox(
				grid.IV(cutsX[xi], cutsY[yi]),
				grid.IV(cutsX[xi+1]-1, cutsY[yi+1]-1)))
		}
	}
	if len(boxes) == 0 {
		boxes = append(boxes, region)
	}
	return NewBoxArray(boxes)
}

// randomMultiFab builds a MultiFab over ba with every data-box cell
// (ghosts included) set to a deterministic pseudo-random value.
func randomMultiFab(rng *rand.Rand, ba BoxArray, ncomp, nghost int) *MultiFab {
	dm := MustDistribute(ba, rng.Intn(4)+1, DistRoundRobin)
	mf := NewMultiFab(ba, dm, ncomp, nghost)
	for _, f := range mf.FABs {
		for k := range f.Data {
			f.Data[k] = rng.Float64()*2000 - 1000
		}
	}
	return mf
}

// cloneMultiFab deep-copies field data into a fresh MultiFab of the same
// shape (sharing the BoxArray, as a regridded swap would).
func cloneMultiFab(mf *MultiFab) *MultiFab {
	out := NewMultiFab(mf.BA, mf.DM, mf.NComp, mf.NGhost)
	for i, f := range mf.FABs {
		copy(out.FABs[i].Data, f.Data)
	}
	return out
}

func assertIdentical(t *testing.T, iter int, what string, a, b *MultiFab) {
	t.Helper()
	for i := range a.FABs {
		fa, fb := a.FABs[i], b.FABs[i]
		for k := range fa.Data {
			if fa.Data[k] != fb.Data[k] {
				t.Fatalf("iter %d: %s diverged at box %d offset %d: %g != %g",
					iter, what, i, k, fa.Data[k], fb.Data[k])
			}
		}
	}
}

func TestFillBoundaryMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(95, 95))
	for iter := 0; iter < 40; iter++ {
		ba := randomTiling(rng, dom, 0.8)
		ncomp, nghost := rng.Intn(3)+1, rng.Intn(3)+1
		fast := randomMultiFab(rng, ba, ncomp, nghost)
		ref := cloneMultiFab(fast)
		fast.FillBoundary()
		naiveFillBoundary(ref)
		assertIdentical(t, iter, "FillBoundary", ref, fast)
	}
}

func TestExchangePlanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(127, 127))
	for iter := 0; iter < 40; iter++ {
		ba := randomTiling(rng, dom, 0.7)
		mf := randomMultiFab(rng, ba, 1, rng.Intn(3)+1)
		got := fillBoundaryPlan(mf.BA, mf.NGhost).pairs
		want := naiveExchangePairs(mf)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d pairs, want %d", iter, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("iter %d pair %d: %+v != %+v", iter, k, got[k], want[k])
			}
		}
	}
}

// exchangeVolume is the off-rank byte volume of one ghost exchange on
// (ba, dm): every cached FillBoundary copy whose source and destination
// boxes have different owners.
func exchangeVolume(ba BoxArray, dm DistributionMapping, nghost, ncomp int) int64 {
	var v int64
	for _, p := range fillBoundaryPlan(ba, nghost).pairs {
		if dm.Owner[p.srcIdx] != dm.Owner[p.dstIdx] {
			v += p.region.NumPts() * int64(ncomp) * 8
		}
	}
	return v
}

// naiveExchangeVolume is exchangeVolume over the naive all-pairs list.
func naiveExchangeVolume(mf *MultiFab) int64 {
	var v int64
	for _, p := range naiveExchangePairs(mf) {
		if mf.DM.Owner[p.srcIdx] != mf.DM.Owner[p.dstIdx] {
			v += p.region.NumPts() * int64(mf.NComp) * 8
		}
	}
	return v
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
	want := naiveExchangeVolume(NewMultiFab(ba, dm, 2, 2))
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

// TestExchangeVolumeAndDistributedMatchNaive: on random tilings
// distributed over 1-4 ranks, the off-rank volume of the cached exchange
// plan equals the naive pair list's.
func TestExchangeVolumeAndDistributedMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(63, 63))
	for iter := 0; iter < 10; iter++ {
		ba := randomTiling(rng, dom, 0.85)
		dm := MustDistribute(ba, rng.Intn(4)+1, DistKnapsack)
		want := naiveExchangeVolume(NewMultiFab(ba, dm, 2, 2))
		if got := exchangeVolume(ba, dm, 2, 2); got != want {
			t.Fatalf("iter %d: exchange volume %d, naive %d", iter, got, want)
		}
	}
}

func TestCopyIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(95, 95))
	for iter := 0; iter < 30; iter++ {
		srcBA := randomTiling(rng, dom, 0.75)
		dstBA := randomTiling(rng, dom, 0.75)
		src := randomMultiFab(rng, srcBA, 2, rng.Intn(3))
		fastDst := randomMultiFab(rng, dstBA, 2, rng.Intn(3)+1)
		refDst := cloneMultiFab(fastDst)
		src.CopyInto(fastDst)
		naiveCopyInto(src, refDst)
		assertIdentical(t, iter, "CopyInto", refDst, fastDst)
	}
}

func TestAverageDownMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cdom := grid.NewBox(grid.IV(0, 0), grid.IV(63, 63))
	for iter := 0; iter < 30; iter++ {
		ratio := 2
		if rng.Intn(2) == 1 {
			ratio = 4
		}
		cba := randomTiling(rng, cdom, 1.0)
		// Fine boxes must be ratio-aligned (as Berger-Rigoutsos clustering
		// guarantees) or the ratio x ratio gather would read outside the
		// fine FAB — in the naive reference just as in the indexed path.
		fba := randomTiling(rng, cdom, 0.5).Refine(ratio)
		fine := randomMultiFab(rng, fba, 2, 0)
		fastCrse := randomMultiFab(rng, cba, 2, 1)
		refCrse := cloneMultiFab(fastCrse)
		AverageDown(fastCrse, fine, ratio)
		naiveAverageDown(refCrse, fine, ratio)
		assertIdentical(t, iter, "AverageDown", refCrse, fastCrse)
	}
}

func TestFillPatchMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cdom := grid.NewBox(grid.IV(0, 0), grid.IV(47, 47))
	for iter := 0; iter < 20; iter++ {
		ratio := 2
		kind := InterpPiecewiseConstant
		if rng.Intn(2) == 1 {
			kind = InterpCellConsLinear
		}
		fdom := cdom.Refine(ratio)
		cba := randomTiling(rng, cdom, 1.0)
		fba := randomTiling(rng, fdom, 0.6)
		crse := randomMultiFab(rng, cba, 2, 2)
		fast := randomMultiFab(rng, fba, 2, 2)
		ref := cloneMultiFab(fast)
		FillPatch(fast, crse, fdom, ratio, kind)
		naiveFillPatch(ref, crse, fdom, ratio, kind)
		assertIdentical(t, iter, "FillPatch", ref, fast)
	}
}

// TestPlanReplayAllocations: FillBoundary, AverageDown and FillPatch keep
// their plans on the fine MultiFab. Repeated calls with unchanged partners
// replay the same plans and allocate a small count that does not grow
// with the box count (a rebuilt plan costs several allocations, and
// FillPatch's at least one per box). A changed partner, ratio or domain
// gets a fresh plan: one fine MultiFab, averaged down onto and filled
// from coarse partners with different boxes, matches the naive
// references bit for bit.
func TestPlanReplayAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // serial ForEachFAB: no worker goroutines
	const bound = 3
	for _, n := range []int{64, 1024} {
		fine := scalingMF(n, 2, 2)
		fdom := scalingDomain(n)
		cba := SingleBoxArray(fdom.Coarsen(2), 16, 16)
		crse := NewMultiFab(cba, MustDistribute(cba, 8, DistKnapsack), 2, 2)
		calls := []struct {
			name string
			fn   func()
		}{
			{"FillBoundary", fine.FillBoundary},
			{"AverageDown", func() { AverageDown(crse, fine, 2) }},
			{"FillPatch", func() { FillPatch(fine, crse, fdom, 2, InterpCellConsLinear) }},
		}
		for _, c := range calls {
			c.fn()
		}
		exchange, restrict, patch := fine.exchangePlan(), fine.restrict.Load(), fine.patch.Load()
		for _, c := range calls {
			if a := testing.AllocsPerRun(5, c.fn); a > bound {
				t.Errorf("%d boxes: a repeated %s allocates %v times, want at most %d", n, c.name, a, bound)
			}
		}
		if fine.exchangePlan() != exchange || fine.restrict.Load() != restrict || fine.patch.Load() != patch {
			t.Errorf("%d boxes: a repeated call with unchanged partners built a new plan", n)
		}
	}

	rng := rand.New(rand.NewSource(10))
	cdom := grid.NewBox(grid.IV(0, 0), grid.IV(31, 31))
	fdom := cdom.Refine(4)
	// Ratio-4-aligned fine boxes are aligned for ratio 2 as well.
	fine := randomMultiFab(rng, randomTiling(rng, cdom, 0.5).Refine(4), 2, 2)
	for iter := 0; iter < 12; iter++ {
		// Each ratio twice in a row, so a new partner alone must rebuild
		// the restriction plan.
		ratio := 2 << (iter / 2 % 2)
		kind := InterpPiecewiseConstant
		if rng.Intn(2) == 1 {
			kind = InterpCellConsLinear
		}
		crse := randomMultiFab(rng, randomTiling(rng, fdom.Coarsen(ratio), 1.0), 2, 2)
		fastCrse, refCrse := cloneMultiFab(crse), cloneMultiFab(crse)
		// Then the other ratio onto the same partner: a new ratio alone
		// must rebuild it too.
		for _, r := range []int{ratio, 6 - ratio} {
			AverageDown(fastCrse, fine, r)
			naiveAverageDown(refCrse, fine, r)
			assertIdentical(t, iter, "AverageDown onto a new partner or ratio", refCrse, fastCrse)
		}

		dom := fdom
		if iter%3 == 2 {
			dom = fdom.Grow(8)
		}
		ref := cloneMultiFab(fine)
		FillPatch(fine, crse, dom, ratio, kind)
		naiveFillPatch(ref, crse, dom, ratio, kind)
		assertIdentical(t, iter, "FillPatch from a new partner", ref, fine)
	}
}

// TestConcurrentAverageDownMatchesNaive: AverageDown only reads the fine
// MultiFab, so goroutines may average one fine level onto different
// coarse partners at once; the plan each keeps on the fine side must not
// race or leak into another's call.
func TestConcurrentAverageDownMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cdom := grid.NewBox(grid.IV(0, 0), grid.IV(31, 31))
	fine := randomMultiFab(rng, randomTiling(rng, cdom, 0.5).Refine(2), 2, 0)
	fast := make([]*MultiFab, 8)
	ref := make([]*MultiFab, len(fast))
	for i := range fast {
		fast[i] = randomMultiFab(rng, randomTiling(rng, cdom, 1.0), 2, 1)
		ref[i] = cloneMultiFab(fast[i])
		naiveAverageDown(ref[i], fine, 2)
	}
	var wg sync.WaitGroup
	for _, crse := range fast {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				AverageDown(crse, fine, 2)
			}
		}()
	}
	wg.Wait()
	for i := range fast {
		assertIdentical(t, i, "concurrent AverageDown", ref[i], fast[i])
	}
}

// TestMinMaxSumReductions pins the reduction semantics: Min/Max agree with
// a serial scan over valid cells, Sum is deterministic, and the empty
// MultiFab panics with a clear message instead of faulting on FABs[0].
func TestMinMaxSumReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(63, 63))
	ba := randomTiling(rng, dom, 1.0)
	mf := randomMultiFab(rng, ba, 2, 2)
	for comp := 0; comp < 2; comp++ {
		wantMn, wantMx := math.Inf(1), math.Inf(-1)
		var wantSum float64
		for _, f := range mf.FABs {
			for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
				for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
					v := f.At(i, j, comp)
					if v < wantMn {
						wantMn = v
					}
					if v > wantMx {
						wantMx = v
					}
					wantSum += v
				}
			}
		}
		if got := mf.Min(comp); got != wantMn {
			t.Fatalf("Min(%d) = %g, want %g", comp, got, wantMn)
		}
		if got := mf.Max(comp); got != wantMx {
			t.Fatalf("Max(%d) = %g, want %g", comp, got, wantMx)
		}
		if got := mf.Sum(comp); got != mf.Sum(comp) || math.Abs(got-wantSum) > 1e-9*math.Abs(wantSum) {
			t.Fatalf("Sum(%d) = %g, want %g", comp, got, wantSum)
		}
	}
	empty := &MultiFab{BA: NewBoxArray(nil), NComp: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax on empty MultiFab did not panic")
		}
	}()
	empty.MinMax(0)
}

// TestValueAtMatchesNaive checks the indexed point lookup against the
// linear scan, inside and outside the covered region.
func TestValueAtMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(63, 63))
	for iter := 0; iter < 20; iter++ {
		ba := randomTiling(rng, dom, 0.7)
		mf := randomMultiFab(rng, ba, 1, 1)
		for q := 0; q < 200; q++ {
			p := grid.IV(rng.Intn(80)-8, rng.Intn(80)-8)
			var wantV float64
			wantOK := false
			for _, f := range mf.FABs {
				if f.ValidBox.Contains(p) {
					wantV, wantOK = f.At(p.X, p.Y, 0), true
					break
				}
			}
			gotV, gotOK := mf.ValueAt(p, 0)
			if gotOK != wantOK || gotV != wantV {
				t.Fatalf("iter %d ValueAt(%v) = (%g,%v), want (%g,%v)",
					iter, p, gotV, gotOK, wantV, wantOK)
			}
		}
	}
}

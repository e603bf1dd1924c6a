package amr

import (
	"fmt"
	"testing"

	"amrproxyio/internal/grid"
)

// Scaling benchmarks for the BoxIndex/plan-cache subsystem. Each pair of
// benchmarks (indexed vs naive) runs the same work at 64, 256 and 1024
// boxes so the O(N^2) -> O(N) change in scaling class is visible in the
// bench trajectory, and reports boxes/sec for cross-size comparison:
//
//	go test ./internal/amr -bench 'FillBoundary|ExchangePlan|FillPatch' -benchtime 1x
func scalingSizes() []int { return []int{64, 256, 1024} }

// scalingBA tiles scalingDomain(nboxes) into exactly nboxes 16x16 boxes.
func scalingBA(nboxes int) BoxArray {
	return SingleBoxArray(scalingDomain(nboxes), 16, 16)
}

// scalingDomain is the square domain of nboxes 16x16 tiles.
func scalingDomain(nboxes int) grid.Box {
	side := 1
	for side*side < nboxes {
		side *= 2
	}
	return grid.NewBox(grid.IV(0, 0), grid.IV(side*16-1, side*16-1))
}

func scalingMF(nboxes, ncomp, nghost int) *MultiFab {
	ba := scalingBA(nboxes)
	return NewMultiFab(ba, MustDistribute(ba, 8, DistKnapsack), ncomp, nghost)
}

func reportBoxesPerSec(b *testing.B, nboxes int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(nboxes)*float64(b.N)/s, "boxes/sec")
	}
}

func BenchmarkFillBoundary(b *testing.B) {
	for _, n := range scalingSizes() {
		b.Run(fmt.Sprintf("boxes=%d", n), func(b *testing.B) {
			mf := scalingMF(n, 4, 2)
			mf.FillBoundary() // warm the plan cache: steady-state replay
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mf.FillBoundary()
			}
			reportBoxesPerSec(b, n)
		})
	}
}

func BenchmarkFillBoundaryNaive(b *testing.B) {
	for _, n := range scalingSizes() {
		b.Run(fmt.Sprintf("boxes=%d", n), func(b *testing.B) {
			mf := scalingMF(n, 4, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				naiveFillBoundary(mf)
			}
			reportBoxesPerSec(b, n)
		})
	}
}

// BenchmarkExchangePlan measures uncached plan construction — the cost a
// regrid pays once per new grid generation.
func BenchmarkExchangePlan(b *testing.B) {
	for _, n := range scalingSizes() {
		b.Run(fmt.Sprintf("boxes=%d", n), func(b *testing.B) {
			ba := scalingBA(n)
			ba.Index() // isolate plan construction from index build
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				computeFillBoundaryPlan(ba, 2)
			}
			reportBoxesPerSec(b, n)
		})
	}
}

func BenchmarkExchangePlanNaive(b *testing.B) {
	for _, n := range scalingSizes() {
		b.Run(fmt.Sprintf("boxes=%d", n), func(b *testing.B) {
			mf := scalingMF(n, 4, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				naiveExchangePairs(mf)
			}
			reportBoxesPerSec(b, n)
		})
	}
}

// BenchmarkFillPatch measures the coarse-region plan construction (the
// part of FillPatch that was O(N^2): data box minus every valid box).
func BenchmarkFillPatch(b *testing.B) {
	for _, n := range scalingSizes() {
		b.Run(fmt.Sprintf("boxes=%d", n), func(b *testing.B) {
			ba := scalingBA(n)
			dom := scalingDomain(n)
			ba.Index()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				computeFillPatchCoarsePlan(ba, 2, dom)
			}
			reportBoxesPerSec(b, n)
		})
	}
}

func BenchmarkFillPatchNaive(b *testing.B) {
	for _, n := range scalingSizes() {
		b.Run(fmt.Sprintf("boxes=%d", n), func(b *testing.B) {
			ba := scalingBA(n)
			dom := scalingDomain(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, db := range ba.Boxes {
					needed := []grid.Box{db.Grow(2).Intersect(dom)}
					for _, vb := range ba.Boxes {
						var next []grid.Box
						for _, r := range needed {
							next = append(next, r.Difference(vb)...)
						}
						needed = next
						if len(needed) == 0 {
							break
						}
					}
				}
			}
			reportBoxesPerSec(b, n)
		})
	}
}

// TestScalingSpeedup is the acceptance gate in test form: at 1024 boxes
// the indexed paths must beat the naive ones by >= 5x. Run with the
// normal test suite (it times a handful of iterations, not full bench
// statistics) so CI catches a scaling regression without -bench.
func TestScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// A 1-component, 1-ghost MultiFab (the tagging shape): the regime
	// where neighbor search, not byte movement, is the cost — the copies
	// themselves are identical on both sides of the comparison.
	const n = 1024
	mf := scalingMF(n, 1, 1)
	mf.FillBoundary() // warm plan + index

	timeIt := func(fn func()) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		return res.T.Seconds() / float64(res.N)
	}
	fast := timeIt(func() { mf.FillBoundary() })
	slow := timeIt(func() { naiveFillBoundary(mf) })
	if slow < 5*fast {
		t.Errorf("FillBoundary speedup %.1fx < 5x (fast %v, slow %v)", slow/fast, fast, slow)
	}
	// Same nghost=1 plan on both sides, matching mf's shape.
	ba := mf.BA
	fastPlan := timeIt(func() { computeFillBoundaryPlan(ba, 1) })
	slowPlan := timeIt(func() { naiveExchangePairs(mf) })
	if slowPlan < 5*fastPlan {
		t.Errorf("exchange-plan speedup %.1fx < 5x (fast %v, slow %v)", slowPlan/fastPlan, fastPlan, slowPlan)
	}
}

package amr

import (
	"math/rand"
	"testing"

	"amrproxyio/internal/grid"
)

// Property: for random tag clouds, MakeFineBoxArray always produces a
// disjoint BoxArray, aligned to the blocking factor, within the refined
// domain, covering every buffered tag — the contract the whole regridding
// pipeline rests on.
func TestMakeFineBoxArrayProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(127, 127))
	for iter := 0; iter < 60; iter++ {
		tags := NewTagSet()
		n := rng.Intn(400) + 1
		for k := 0; k < n; k++ {
			tags.Add(grid.IV(rng.Intn(128), rng.Intn(128)))
		}
		ratio := 2
		if rng.Intn(2) == 1 {
			ratio = 4
		}
		bf := 8
		mgs := 32
		buffer := rng.Intn(3)
		ba := MakeFineBoxArray(tags, dom, ratio, bf, mgs, 0.7, buffer)
		if !ba.IsDisjoint() {
			t.Fatalf("iter %d: overlapping boxes", iter)
		}
		fineDom := dom.Refine(ratio)
		for _, b := range ba.Boxes {
			if !fineDom.ContainsBox(b) {
				t.Fatalf("iter %d: box %v escapes the domain", iter, b)
			}
			s := b.Size()
			if s.X > mgs || s.Y > mgs {
				t.Fatalf("iter %d: box %v exceeds max grid size", iter, b)
			}
		}
		for _, p := range tags.Buffer(buffer, dom).Points() {
			if ba.Owner(grid.IV(p.X*ratio, p.Y*ratio)) < 0 {
				t.Fatalf("iter %d: buffered tag %v not covered", iter, p)
			}
		}
	}
}

// Property: distribution mappings are complete (every box owned by a rank
// in range) and knapsack never does worse than the theoretical ceiling of
// one whole extra largest-box beyond perfect balance.
func TestDistributeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 60; iter++ {
		var boxes []grid.Box
		nb := rng.Intn(40) + 1
		for k := 0; k < nb; k++ {
			lo := grid.IV(rng.Intn(100)*8, rng.Intn(100)*8)
			boxes = append(boxes, grid.BoxFromSize(lo, grid.IV(8*(rng.Intn(4)+1), 8*(rng.Intn(4)+1))))
		}
		ba := NewBoxArray(boxes)
		nprocs := rng.Intn(16) + 1
		for _, strat := range []DistStrategy{DistRoundRobin, DistKnapsack, DistSFC} {
			dm := MustDistribute(ba, nprocs, strat)
			if len(dm.Owner) != ba.Len() {
				t.Fatalf("%v: owner count", strat)
			}
			for _, o := range dm.Owner {
				if o < 0 || o >= nprocs {
					t.Fatalf("%v: owner %d out of range", strat, o)
				}
			}
		}
		// Knapsack bound: max load <= mean + largest box.
		dm := MustDistribute(ba, nprocs, DistKnapsack)
		load := dm.LoadPerRank(ba, nprocs)
		var total, maxLoad, maxBox int64
		for _, l := range load {
			total += l
			if l > maxLoad {
				maxLoad = l
			}
		}
		for _, b := range boxes {
			if b.NumPts() > maxBox {
				maxBox = b.NumPts()
			}
		}
		mean := total / int64(nprocs)
		if maxLoad > mean+maxBox {
			t.Fatalf("knapsack bound violated: max %d > mean %d + biggest %d", maxLoad, mean, maxBox)
		}
	}
}

// Property: AverageDown then InterpRegion (piecewise constant) is identity
// on fine data that is constant within each coarse cell.
func TestRestrictionProlongationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cdom := grid.NewBox(grid.IV(0, 0), grid.IV(15, 15))
	cba := SingleBoxArray(cdom, 16, 1)
	for iter := 0; iter < 20; iter++ {
		crse := NewMultiFab(cba, MustDistribute(cba, 1, DistRoundRobin), 1, 1)
		fdom := cdom.Refine(2)
		fba := SingleBoxArray(fdom, 32, 1)
		fine := NewMultiFab(fba, MustDistribute(fba, 1, DistRoundRobin), 1, 0)
		// Fill fine with values constant per coarse cell.
		want := map[grid.IntVect]float64{}
		for j := 0; j < 16; j++ {
			for i := 0; i < 16; i++ {
				want[grid.IV(i, j)] = rng.Float64() * 100
			}
		}
		fine.ForEachFAB(func(_ int, f *FAB) {
			for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
				for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
					f.Set(i, j, 0, want[grid.IV(i/2, j/2)])
				}
			}
		})
		AverageDown(crse, fine, 2)
		// Re-prolong into a fresh fine fab and compare.
		out := NewFAB(fdom, 1, 0)
		InterpRegion(out, crse, fdom, 2, InterpPiecewiseConstant)
		for j := fdom.Lo.Y; j <= fdom.Hi.Y; j++ {
			for i := fdom.Lo.X; i <= fdom.Hi.X; i++ {
				if got, expect := out.At(i, j, 0), want[grid.IV(i/2, j/2)]; got != expect {
					t.Fatalf("iter %d: (%d,%d) = %g, want %g", iter, i, j, got, expect)
				}
			}
		}
	}
}

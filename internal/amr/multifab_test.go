package amr

import (
	"math"
	"testing"

	"amrproxyio/internal/grid"
)

func TestFABIndexingAndAccess(t *testing.T) {
	b := grid.NewBox(grid.IV(4, 4), grid.IV(7, 9))
	f := NewFAB(b, 3, 2)
	if !f.DataBox.Equal(b.Grow(2)) {
		t.Errorf("DataBox = %v", f.DataBox)
	}
	f.Set(5, 6, 1, 3.25)
	if got := f.At(5, 6, 1); got != 3.25 {
		t.Errorf("At = %g", got)
	}
	if got := f.At(5, 6, 0); got != 0 {
		t.Errorf("other comp = %g", got)
	}
	f.Add(5, 6, 1, 1.0)
	if got := f.At(5, 6, 1); got != 4.25 {
		t.Errorf("Add = %g", got)
	}
	// Ghost cells addressable.
	f.Set(2, 2, 0, 7)
	if f.At(2, 2, 0) != 7 {
		t.Error("ghost access failed")
	}
}

func TestFABFillConstAndStats(t *testing.T) {
	f := NewFAB(grid.NewBox(grid.IV(0, 0), grid.IV(3, 3)), 2, 1)
	f.FillConst(0, 2.5)
	mn, mx := f.MinMax(0)
	if mn != 2.5 || mx != 2.5 {
		t.Errorf("MinMax = %g,%g", mn, mx)
	}
	if got := f.Sum(0); got != 2.5*16 {
		t.Errorf("Sum = %g", got)
	}
}

func TestFABCopyFrom(t *testing.T) {
	a := NewFAB(grid.NewBox(grid.IV(0, 0), grid.IV(7, 7)), 1, 0)
	b := NewFAB(grid.NewBox(grid.IV(4, 0), grid.IV(11, 7)), 1, 2)
	for j := 0; j <= 7; j++ {
		for i := 0; i <= 7; i++ {
			a.Set(i, j, 0, float64(10*i+j))
		}
	}
	region := b.DataBox.Intersect(a.ValidBox) // includes b's ghosts over a
	b.CopyFrom(a, region)
	if got := b.At(5, 3, 0); got != 53 {
		t.Errorf("copied value = %g", got)
	}
	if got := b.At(2, 3, 0); got != 23 { // ghost cell of b
		t.Errorf("ghost copied value = %g", got)
	}
}

func TestNewFABPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty box accepted")
		}
	}()
	NewFAB(grid.Empty(), 1, 0)
}

func TestMultiFabFillBoundary(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(15, 15))
	ba := SingleBoxArray(dom, 8, 8) // 4 boxes
	dm := MustDistribute(ba, 2, DistRoundRobin)
	mf := NewMultiFab(ba, dm, 1, 2)
	// Value = i + 100*j over valid cells.
	mf.ForEachFAB(func(_ int, f *FAB) {
		for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
			for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
				f.Set(i, j, 0, float64(i+100*j))
			}
		}
	})
	mf.FillBoundary()
	// The box at (0,0)..(7,7) has ghosts reaching into the box at x>=8.
	var f0 *FAB
	for _, f := range mf.FABs {
		if f.ValidBox.Lo == grid.IV(0, 0) {
			f0 = f
		}
	}
	if f0 == nil {
		t.Fatal("no box at origin")
	}
	if got := f0.At(8, 3, 0); got != 8+300 {
		t.Errorf("ghost at (8,3) = %g, want %g", got, float64(8+300))
	}
	if got := f0.At(9, 9, 0); got != 9+900 {
		t.Errorf("corner ghost at (9,9) = %g", got)
	}
}

func TestMultiFabReductionsAndValueAt(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(15, 15))
	ba := SingleBoxArray(dom, 8, 8)
	mf := NewMultiFab(ba, MustDistribute(ba, 1, DistRoundRobin), 1, 0)
	mf.ForEachFAB(func(_ int, f *FAB) {
		for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
			for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
				f.Set(i, j, 0, float64(i+j))
			}
		}
	})
	if got := mf.Min(0); got != 0 {
		t.Errorf("Min = %g", got)
	}
	if got := mf.Max(0); got != 30 {
		t.Errorf("Max = %g", got)
	}
	wantSum := 0.0
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			wantSum += float64(i + j)
		}
	}
	if got := mf.Sum(0); math.Abs(got-wantSum) > 1e-9 {
		t.Errorf("Sum = %g, want %g", got, wantSum)
	}
	v, ok := mf.ValueAt(grid.IV(3, 4), 0)
	if !ok || v != 7 {
		t.Errorf("ValueAt = %g, %v", v, ok)
	}
	if _, ok := mf.ValueAt(grid.IV(99, 99), 0); ok {
		t.Error("ValueAt outside should fail")
	}
}

func TestMultiFabCopyInto(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(15, 15))
	src := NewMultiFab(SingleBoxArray(dom, 8, 8), MustDistribute(SingleBoxArray(dom, 8, 8), 1, DistRoundRobin), 1, 0)
	src.ForEachFAB(func(_ int, f *FAB) { f.FillConst(0, 5) })
	dstBA := SingleBoxArray(dom, 16, 8) // different layout: one box
	dst := NewMultiFab(dstBA, MustDistribute(dstBA, 1, DistRoundRobin), 1, 1)
	src.CopyInto(dst)
	if v, _ := dst.ValueAt(grid.IV(9, 9), 0); v != 5 {
		t.Errorf("copied value = %g", v)
	}
}

func TestMultiFabMismatchedDMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched DM accepted")
		}
	}()
	ba := SingleBoxArray(domain128(), 32, 8)
	NewMultiFab(ba, DistributionMapping{Owner: []int{0}}, 1, 0)
}

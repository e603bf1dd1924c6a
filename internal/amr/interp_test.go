package amr

import (
	"math"
	"math/rand"
	"testing"

	"amrproxyio/internal/grid"
)

// makeCoarse builds a single-box coarse MultiFab over [0,15]^2 filled by fn.
func makeCoarse(fn func(i, j int) float64, nghost int) *MultiFab {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(15, 15))
	ba := SingleBoxArray(dom, 16, 1)
	mf := NewMultiFab(ba, MustDistribute(ba, 1, DistRoundRobin), 1, nghost)
	mf.ForEachFAB(func(_ int, f *FAB) {
		for j := f.DataBox.Lo.Y; j <= f.DataBox.Hi.Y; j++ {
			for i := f.DataBox.Lo.X; i <= f.DataBox.Hi.X; i++ {
				f.Set(i, j, 0, fn(i, j))
			}
		}
	})
	return mf
}

func TestInterpPiecewiseConstant(t *testing.T) {
	crse := makeCoarse(func(i, j int) float64 { return float64(i + 100*j) }, 1)
	fineBox := grid.NewBox(grid.IV(8, 8), grid.IV(15, 15)) // covers coarse (4..7)^2
	fine := NewFAB(fineBox, 1, 0)
	InterpRegion(fine, crse, fineBox, 2, InterpPiecewiseConstant)
	for j := 8; j <= 15; j++ {
		for i := 8; i <= 15; i++ {
			want := float64(i/2 + 100*(j/2))
			if got := fine.At(i, j, 0); got != want {
				t.Fatalf("fine(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestInterpLinearReproducesLinearField(t *testing.T) {
	// A linear field is reproduced exactly by limited-linear interpolation
	// away from clamped boundaries.
	crse := makeCoarse(func(i, j int) float64 { return 2*float64(i) + 3*float64(j) }, 1)
	fineBox := grid.NewBox(grid.IV(8, 8), grid.IV(19, 19)) // interior coarse cells
	fine := NewFAB(fineBox, 1, 0)
	InterpRegion(fine, crse, fineBox, 2, InterpCellConsLinear)
	for j := fineBox.Lo.Y; j <= fineBox.Hi.Y; j++ {
		for i := fineBox.Lo.X; i <= fineBox.Hi.X; i++ {
			// Fine cell center in coarse index units: (i+0.5)/2 - 0.5.
			xc := (float64(i)+0.5)/2 - 0.5
			yc := (float64(j)+0.5)/2 - 0.5
			want := 2*xc + 3*yc
			if got := fine.At(i, j, 0); math.Abs(got-want) > 1e-12 {
				t.Fatalf("fine(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestInterpConservation(t *testing.T) {
	// The mean of the 2x2 fine children equals the coarse value for both
	// stencils (symmetric offsets).
	crse := makeCoarse(func(i, j int) float64 { return float64(i*i) + 0.5*float64(j) }, 1)
	fineBox := grid.NewBox(grid.IV(12, 12), grid.IV(13, 13)) // children of coarse (6,6)
	for _, kind := range []InterpKind{InterpPiecewiseConstant, InterpCellConsLinear} {
		fine := NewFAB(fineBox, 1, 0)
		InterpRegion(fine, crse, fineBox, 2, kind)
		mean := (fine.At(12, 12, 0) + fine.At(13, 12, 0) + fine.At(12, 13, 0) + fine.At(13, 13, 0)) / 4
		want := float64(36) + 0.5*6
		if math.Abs(mean-want) > 1e-12 {
			t.Errorf("kind %d: children mean = %g, want %g", kind, mean, want)
		}
	}
}

func TestAverageDown(t *testing.T) {
	cdom := grid.NewBox(grid.IV(0, 0), grid.IV(7, 7))
	cba := SingleBoxArray(cdom, 8, 1)
	crse := NewMultiFab(cba, MustDistribute(cba, 1, DistRoundRobin), 1, 0)
	crse.FillConst(0, -1)

	fba := NewBoxArray([]grid.Box{grid.NewBox(grid.IV(4, 4), grid.IV(11, 11))})
	fine := NewMultiFab(fba, MustDistribute(fba, 1, DistRoundRobin), 1, 0)
	fine.ForEachFAB(func(_ int, f *FAB) {
		for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
			for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
				f.Set(i, j, 0, float64(i+j))
			}
		}
	})
	AverageDown(crse, fine, 2)
	// Coarse cell (3,3) covers fine (6..7, 6..7): mean of 12,13,13,14 = 13.
	if v, _ := crse.ValueAt(grid.IV(3, 3), 0); v != 13 {
		t.Errorf("averaged value = %g, want 13", v)
	}
	// Uncovered coarse cells unchanged.
	if v, _ := crse.ValueAt(grid.IV(0, 0), 0); v != -1 {
		t.Errorf("uncovered value = %g", v)
	}
}

func TestFillOutflowBC(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(7, 7))
	ba := SingleBoxArray(dom, 8, 1)
	mf := NewMultiFab(ba, MustDistribute(ba, 1, DistRoundRobin), 1, 2)
	mf.ForEachFAB(func(_ int, f *FAB) {
		for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
			for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
				f.Set(i, j, 0, float64(i+10*j))
			}
		}
	})
	FillOutflowBC(mf, dom)
	f := mf.FABs[0]
	if got := f.At(-1, 3, 0); got != 0+30 {
		t.Errorf("left ghost = %g, want 30", got)
	}
	if got := f.At(9, 3, 0); got != 7+30 {
		t.Errorf("right ghost = %g, want 37", got)
	}
	if got := f.At(-2, -2, 0); got != 0 {
		t.Errorf("corner ghost = %g, want 0", got)
	}
	if got := f.At(3, 9, 0); got != 3+70 {
		t.Errorf("top ghost = %g, want 73", got)
	}
}

func TestFillPatchCombinesSameLevelAndCoarse(t *testing.T) {
	// Coarse level covers [0,15]^2 with value 7. Fine level has two
	// adjacent boxes; one's ghosts reach the other (same-level copy) and
	// also reach outside the fine union (coarse interp).
	cdom := grid.NewBox(grid.IV(0, 0), grid.IV(15, 15))
	cba := SingleBoxArray(cdom, 16, 1)
	crse := NewMultiFab(cba, MustDistribute(cba, 1, DistRoundRobin), 1, 1)
	crse.FillConst(0, 7)

	fdom := cdom.Refine(2)
	fba := NewBoxArray([]grid.Box{
		grid.NewBox(grid.IV(8, 8), grid.IV(15, 15)),
		grid.NewBox(grid.IV(16, 8), grid.IV(23, 15)),
	})
	fine := NewMultiFab(fba, MustDistribute(fba, 1, DistRoundRobin), 1, 2)
	fine.FABs[0].FillConst(0, 1)
	fine.FABs[1].FillConst(0, 2)
	// Reset valid-region values explicitly (FillConst hit ghosts too).
	for idx, f := range fine.FABs {
		for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
			for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
				f.Set(i, j, 0, float64(idx+1))
			}
		}
	}
	FillPatch(fine, crse, fdom, 2, InterpPiecewiseConstant)
	f0 := fine.FABs[0]
	// Ghost into neighbor: same-level value 2.
	if got := f0.At(16, 10, 0); got != 2 {
		t.Errorf("same-level ghost = %g, want 2", got)
	}
	// Ghost outside the fine union: coarse value 7.
	if got := f0.At(7, 10, 0); got != 7 {
		t.Errorf("coarse-fill ghost = %g, want 7", got)
	}
	if got := f0.At(10, 7, 0); got != 7 {
		t.Errorf("coarse-fill ghost below = %g, want 7", got)
	}
	// Valid data untouched.
	if got := f0.At(10, 10, 0); got != 1 {
		t.Errorf("valid value = %g, want 1", got)
	}
}

func TestFillPatchLevel0NoCoarse(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(15, 15))
	ba := SingleBoxArray(dom, 8, 8)
	mf := NewMultiFab(ba, MustDistribute(ba, 1, DistRoundRobin), 1, 2)
	mf.ForEachFAB(func(_ int, f *FAB) {
		for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
			for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
				f.Set(i, j, 0, 3)
			}
		}
	})
	FillPatch(mf, nil, dom, 1, InterpPiecewiseConstant)
	// Domain-edge ghosts filled by outflow; interior ghosts by exchange.
	f := mf.FABs[0]
	if got := f.At(-1, 0, 0); got != 3 {
		t.Errorf("outflow ghost = %g", got)
	}
	if got := f.At(8, 0, 0); got != 3 {
		t.Errorf("exchange ghost = %g", got)
	}
}

// probeInterpRegion is the per-cell interpolation loop InterpRegion
// replaced: every stencil point of every fine cell and component goes
// through the clamped index lookup.
func probeInterpRegion(fine *FAB, crse *MultiFab, region grid.Box, ratio int, kind InterpKind) {
	look := makeClampedLookup(crse)
	for c := 0; c < fine.NComp; c++ {
		for j := region.Lo.Y; j <= region.Hi.Y; j++ {
			for i := region.Lo.X; i <= region.Hi.X; i++ {
				fine.Set(i, j, c, interpCell(kind, look, i, j, c, ratio))
			}
		}
	}
}

// TestInterpRegionMatchesProbe checks the direct-read InterpRegion bit for
// bit against the per-point probe loop, on seeded random coarse tilings:
// abutting boxes (seams), holes, domains off the origin, and fine regions
// reaching onto and past the domain ring, at ratios 2 and 4 with both
// stencils.
func TestInterpRegionMatchesProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 200; iter++ {
		ratio := 2 + 2*rng.Intn(2)
		kind := InterpKind(rng.Intn(2))
		lo := grid.IV(rng.Intn(41)-20, rng.Intn(41)-20)
		cdom := grid.BoxFromSize(lo, grid.IV(rng.Intn(40)+8, rng.Intn(40)+8))
		keep := 1.0
		if iter%3 == 0 {
			keep = 0.7 // holes: stencils that leave the valid union
		}
		crse := randomMultiFab(rng, randomTiling(rng, cdom, keep), rng.Intn(3)+1, rng.Intn(3))
		// The fine box is the refined domain grown past the coarse data,
		// so random regions cover the interior, seams, ring and beyond.
		fbox := cdom.Refine(ratio).Grow(3 * ratio)
		for q := 0; q < 4; q++ {
			a := grid.IV(fbox.Lo.X+rng.Intn(fbox.Size().X), fbox.Lo.Y+rng.Intn(fbox.Size().Y))
			b := grid.IV(fbox.Lo.X+rng.Intn(fbox.Size().X), fbox.Lo.Y+rng.Intn(fbox.Size().Y))
			region := grid.NewBox(a.Min(b), a.Max(b))
			got, want := NewFAB(region, crse.NComp, 1), NewFAB(region, crse.NComp, 1)
			for k := range got.Data {
				got.Data[k] = rng.Float64()
			}
			copy(want.Data, got.Data)
			InterpRegion(got, crse, region, ratio, kind)
			probeInterpRegion(want, crse, region, ratio, kind)
			for k := range want.Data {
				if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
					t.Fatalf("iter %d (ratio %d, kind %d, region %v): offset %d = %v, probe loop %v",
						iter, ratio, kind, region, k, got.Data[k], want.Data[k])
				}
			}
		}
	}
}

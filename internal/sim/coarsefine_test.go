package sim

import (
	"math"
	"math/rand"
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/hydro"
)

// randomCuts splits [lo, hi] at random points step(rng) apart.
func randomCuts(rng *rand.Rand, lo, hi int, step func() int) []int {
	cuts := []int{lo}
	for x := lo + step(); x <= hi; x += step() {
		cuts = append(cuts, x)
	}
	return append(cuts, hi+1)
}

// randomTiles tiles region with a random grid of boxes, keeping each with
// probability keep (at least one is always kept). Kept neighbours abut.
func randomTiles(rng *rand.Rand, region grid.Box, keep float64, step func() int) amr.BoxArray {
	xs := randomCuts(rng, region.Lo.X, region.Hi.X, step)
	ys := randomCuts(rng, region.Lo.Y, region.Hi.Y, step)
	var boxes []grid.Box
	for a := 0; a+1 < len(ys); a++ {
		for b := 0; b+1 < len(xs); b++ {
			if len(boxes) == 0 && a+2 == len(ys) && b+2 == len(xs) || rng.Float64() < keep {
				boxes = append(boxes, grid.NewBox(grid.IV(xs[b], ys[a]), grid.IV(xs[b+1]-1, ys[a+1]-1)))
			}
		}
	}
	return amr.NewBoxArray(boxes)
}

// randomFineBA draws a fine BoxArray inside fdom: abutting tiles over a
// random sub-rectangle that often reaches the domain wall, with holes.
// Tile edges are ratio-aligned, as clustering makes them, or (unaligned)
// anywhere, so some coarse cells are only partly covered.
func randomFineBA(rng *rand.Rand, fdom grid.Box, ratio int) amr.BoxArray {
	sz := fdom.Size()
	lo := grid.IV(rng.Intn(sz.X/2), rng.Intn(sz.Y/2))
	hi := grid.IV(sz.X/2+rng.Intn(sz.X/2), sz.Y/2+rng.Intn(sz.Y/2))
	if rng.Intn(2) == 0 {
		lo.X = 0 // on the low x wall
	}
	if rng.Intn(2) == 0 {
		hi.Y = sz.Y - 1 // on the high y wall
	}
	step := func() int { return ratio * (rng.Intn(4) + 1) }
	if rng.Intn(4) == 0 {
		step = func() int { return rng.Intn(3*ratio) + 2 }
	} else {
		lo, hi = lo.Coarsen(ratio).Mul(ratio), hi.Coarsen(ratio).Mul(ratio).Add(grid.IV(ratio-1, ratio-1))
	}
	return randomTiles(rng, grid.NewBox(fdom.Lo.Add(lo), fdom.Lo.Add(hi)), 0.8, step)
}

// randomTwoLevel builds a two-level Sim by hand: a random coarse tiling of
// the whole domain and a random fine level inside it, both filled with
// random (physical) states, ghosts patched. It returns a stable dt.
func randomTwoLevel(t *testing.T, rng *rand.Rand) (*Sim, float64) {
	t.Helper()
	cfg := smallCfg()
	n := 8 * (rng.Intn(3) + 2)
	ratio := 2 + 2*rng.Intn(2)
	cfg.NCell = [2]int{n, n}
	cfg.RefRatio = []int{ratio}
	s := &Sim{Cfg: cfg, Opts: DefaultOptions()}
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(n-1, n-1))
	g0 := grid.NewGeom(dom, cfg.ProbLo, cfg.ProbHi)
	g1 := g0.Refine(ratio)
	for _, lv := range []struct {
		geom grid.Geom
		ba   amr.BoxArray
	}{
		{g0, randomTiles(rng, dom, 1, func() int { return rng.Intn(8) + 3 })},
		{g1, randomFineBA(rng, g1.Domain, ratio)},
	} {
		dm, err := amr.Distribute(lv.ba, 4, amr.DistKnapsack)
		if err != nil {
			t.Fatal(err)
		}
		lev := &Level{Geom: lv.geom, BA: lv.ba, DM: dm, State: amr.NewMultiFab(lv.ba, dm, hydro.NCons, nGhost)}
		for _, f := range lev.State.FABs {
			vb := f.ValidBox
			for j := vb.Lo.Y; j <= vb.Hi.Y; j++ {
				for i := vb.Lo.X; i <= vb.Hi.X; i++ {
					w := hydro.Prim{Rho: 0.5 + rng.Float64(), U: rng.Float64() - 0.5, V: rng.Float64() - 0.5, P: 0.5 + rng.Float64()}
					c := hydro.ToCons(w, blast.Gamma)
					f.Set(i, j, hydro.IRho, c.Rho)
					f.Set(i, j, hydro.IMx, c.Mx)
					f.Set(i, j, hydro.IMy, c.My)
					f.Set(i, j, hydro.IEner, c.E)
				}
			}
		}
		s.Levels = append(s.Levels, lev)
	}
	s.fillPatchAll()
	return s, 0.05 * g1.CellSize[0]
}

// scanReflux is the reflux pass the face list replaced: every valid coarse
// cell probes the coarsened fine index for itself and both neighbours
// along dir, and every fine sub-face probes the fine index for its owner.
func scanReflux(s *Sim, l, dir int, dt float64) {
	crse, fine := s.Levels[l], s.Levels[l+1]
	ratio := s.Cfg.RefRatioAt(l)
	coveredIdx := fine.BA.Coarsen(ratio).Index()
	fineIdx := fine.BA.Index()
	scale := dt / crse.Geom.CellSize[dir]
	dom := crse.Geom.Domain
	step := grid.IV(1, 0)
	if dir == 1 {
		step = grid.IV(0, 1)
	}
	for ci, cf := range crse.State.FABs {
		vb := cf.ValidBox
		for j := vb.Lo.Y; j <= vb.Hi.Y; j++ {
			for i := vb.Lo.X; i <= vb.Hi.X; i++ {
				c := grid.IV(i, j)
				if coveredIdx.Contains(c) {
					continue
				}
				at, p := i, j
				if dir == 1 {
					at, p = j, i
				}
				hiCell, loCell := c.Add(step), c.Sub(step)
				if dom.Contains(hiCell) && coveredIdx.Contains(hiCell) {
					fc := faceFlux(crse.work[ci].Flux(), dir, at+1, p)
					if avg, ok := scanFaceAvg(fineIdx, fine.work, dir, (at+1)*ratio, p, ratio); ok {
						applyCorrection(cf, i, j, scale, sub(fc, avg))
					}
				}
				if dom.Contains(loCell) && coveredIdx.Contains(loCell) {
					fc := faceFlux(crse.work[ci].Flux(), dir, at, p)
					if avg, ok := scanFaceAvg(fineIdx, fine.work, dir, at*ratio, p, ratio); ok {
						applyCorrection(cf, i, j, scale, sub(avg, fc))
					}
				}
			}
		}
	}
}

// scanFaceAvg averages the ratio fine fluxes across the coarse face at
// fine face coordinate face, coarse pencil p, resolving each owner by
// index probes; ok is false when some sub-face has no capturing owner.
func scanFaceAvg(fineIdx *grid.BoxIndex, fine []hydro.Workspace, dir, face, p, ratio int) (hydro.Cons, bool) {
	var sum hydro.Cons
	found := 0
	for k := p * ratio; k < (p+1)*ratio; k++ {
		a, b := grid.IV(face-1, k), grid.IV(face, k)
		if dir == 1 {
			a, b = grid.IV(k, face-1), grid.IV(k, face)
		}
		if o := fineFaceOwner(fineIdx, a, b); o >= 0 {
			ff := fine[o].Flux()
			in := ff != nil && (dir == 0 && ff.ContainsXFace(face, k) || dir == 1 && ff.ContainsYFace(k, face))
			if in {
				sum = add(sum, faceFlux(ff, dir, face, k))
				found++
			}
		}
	}
	if found != ratio {
		return hydro.Cons{}, false
	}
	inv := 1.0 / float64(ratio)
	return hydro.Cons{Rho: sum.Rho * inv, Mx: sum.Mx * inv, My: sum.My * inv, E: sum.E * inv}, true
}

func snapshot(mf *amr.MultiFab) [][]float64 {
	out := make([][]float64, len(mf.FABs))
	for i, f := range mf.FABs {
		out[i] = append([]float64(nil), f.Data...)
	}
	return out
}

// sameBits reports the first FAB offset where mf differs from want in any
// bit, or ok.
func sameBits(mf *amr.MultiFab, want [][]float64) (fab, off int, ok bool) {
	for i, f := range mf.FABs {
		for k, v := range f.Data {
			if math.Float64bits(v) != math.Float64bits(want[i][k]) {
				return i, k, false
			}
		}
	}
	return 0, 0, true
}

// TestRefluxFaceListMatchesScan: on random two-level hierarchies — fine
// boxes abutting each other and the domain wall, aligned or not, with
// gaps one coarse cell wide — the face-list reflux leaves the coarse
// state bit for bit where the covered-cell scan does, in both directions.
func TestRefluxFaceListMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var faces, twoSided, moved int
	for iter := 0; iter < 80; iter++ {
		s, dt := randomTwoLevel(t, rng)
		crse := s.Levels[0].State
		for dir := 0; dir < 2; dir++ {
			if dir == 1 {
				s.fillPatchAll()
			}
			s.sweepAll(dt, dir)
			before := snapshot(crse)
			scanReflux(s, 0, dir, dt)
			want := snapshot(crse)
			for i, f := range crse.FABs {
				copy(f.Data, before[i])
			}
			s.reflux(0, dir, dt)
			if fab, off, ok := sameBits(crse, want); !ok {
				t.Fatalf("iter %d dir %d: coarse FAB %d offset %d = %v, scan %v",
					iter, dir, fab, off, crse.FABs[fab].Data[off], want[fab][off])
			}
			if _, _, ok := sameBits(crse, before); !ok {
				moved++
			}
			list := s.Levels[1].faces.byDir[dir]
			faces += len(list)
			for k := 1; k < len(list); k++ {
				if list[k].i == list[k-1].i && list[k].j == list[k-1].j {
					twoSided++
				}
			}
		}
	}
	if faces == 0 || moved == 0 || twoSided == 0 {
		t.Errorf("faces %d, corrected passes %d, cells corrected on both sides %d: want all > 0", faces, moved, twoSided)
	}
}

// TestRegridFillMatchesInterpolateThenCopy: interpolating only the part of
// each new fine box the old level does not cover, then CopyInto, equals
// interpolating the whole valid box and letting CopyInto overwrite it —
// ghosts included, for both stencils and with no old level at all.
func TestRegridFillMatchesInterpolateThenCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for iter := 0; iter < 60; iter++ {
		s, _ := randomTwoLevel(t, rng)
		crse, fine := s.Levels[0], s.Levels[1]
		ratio := s.Cfg.RefRatioAt(0)
		kind := amr.InterpKind(rng.Intn(2))
		ba := randomFineBA(rng, fine.Geom.Domain, ratio)
		dm := amr.MustDistribute(ba, 4, amr.DistKnapsack)
		old := fine.State
		if iter%5 == 0 {
			old = nil
		}
		got := amr.NewMultiFab(ba, dm, hydro.NCons, nGhost)
		fillRegridded(got, crse.State, old, ratio, kind)
		want := amr.NewMultiFab(ba, dm, hydro.NCons, nGhost)
		want.ForEachFAB(func(_ int, f *amr.FAB) {
			amr.InterpRegion(f, crse.State, f.ValidBox, ratio, kind)
		})
		if old != nil {
			old.CopyInto(want)
		}
		if fab, off, ok := sameBits(got, snapshot(want)); !ok {
			t.Fatalf("iter %d: FAB %d offset %d = %v, whole-box fill %v",
				iter, fab, off, got.FABs[fab].Data[off], want.FABs[fab].Data[off])
		}
	}
}

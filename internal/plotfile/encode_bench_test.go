package plotfile

// Allocation benchmarks for the encode hot path. BenchmarkEncodeCellD is
// the headline number the tentpole gates on (one allocation per Cell_D
// file); BenchmarkEncodeCellDSeed keeps the replaced reflection-based
// encoder measurable for before/after comparison (see CHANGES.md).

import (
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
)

// benchLevel builds a single-rank 256^2 level with 10 components — a
// realistic per-rank Cell_D payload (~5 MB).
func benchLevel(b *testing.B) (LevelSpec, []int, int) {
	const ncomp = 10
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(255, 255))
	g := grid.NewGeom(dom, [2]float64{0, 0}, [2]float64{1, 1})
	ba := amr.SingleBoxArray(dom, 64, 8)
	dm := amr.MustDistribute(ba, 1, amr.DistKnapsack)
	mf := amr.NewMultiFab(ba, dm, ncomp, 0)
	mf.ForEachFAB(func(idx int, f *amr.FAB) {
		for c := 0; c < ncomp; c++ {
			f.FillConst(c, float64(idx)*1.25+float64(c))
		}
	})
	lev := LevelSpec{Geom: g, BA: ba, DM: dm, RefRatio: 2, State: func() *amr.MultiFab { return mf }}
	owned := dm.RankBoxes(0)
	if len(owned) == 0 {
		b.Fatal("rank 0 owns nothing")
	}
	return lev, owned, ncomp
}

func BenchmarkEncodeCellD(b *testing.B) {
	lev, owned, ncomp := benchLevel(b)
	b.SetBytes(CellDBytes(lev.BA, owned, ncomp))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf := encodeCellD(lev, owned, ncomp); len(buf) == 0 {
			b.Fatal("empty encode")
		}
	}
}

func BenchmarkEncodeCellDSeed(b *testing.B) {
	lev, owned, ncomp := benchLevel(b)
	b.SetBytes(CellDBytes(lev.BA, owned, ncomp))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf := seedEncodeCellD(lev, owned, ncomp); len(buf) == 0 {
			b.Fatal("empty encode")
		}
	}
}

func BenchmarkEncodeCellH(b *testing.B) {
	spec := twoLevelSpec(4, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for l := range spec.Levels {
			if EncodeCellH(spec, l) == "" {
				b.Fatal("empty Cell_H")
			}
		}
	}
}

func BenchmarkEncodeCellHSeed(b *testing.B) {
	spec := twoLevelSpec(4, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for l := range spec.Levels {
			if seedEncodeCellH(spec, l) == "" {
				b.Fatal("empty Cell_H")
			}
		}
	}
}

func BenchmarkEncodeHeader(b *testing.B) {
	spec := twoLevelSpec(4, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if EncodeHeader(spec) == "" {
			b.Fatal("empty Header")
		}
	}
}

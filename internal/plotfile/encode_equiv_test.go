package plotfile

// Equivalence tests pinning the strconv-append / preallocated-buffer
// encoders byte-identical to the original fmt + binary.Write encoders
// they replaced. The seed implementations are kept here verbatim as the
// reference; any formatting drift in the rewrite fails these tests.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
)

// --- seed (reference) encoders, verbatim from the original package ------

func seedFormatBox(b grid.Box) string {
	return fmt.Sprintf("((%d,%d) (%d,%d) (0,0))", b.Lo.X, b.Lo.Y, b.Hi.X, b.Hi.Y)
}

func seedFabHeader(b grid.Box, ncomp int) string {
	return fmt.Sprintf("FAB %s %d\n", seedFormatBox(b), ncomp)
}

func seedEncodeHeader(spec Spec) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, FormatVersion)
	fmt.Fprintln(&sb, spec.NComp())
	for _, v := range spec.VarNames {
		fmt.Fprintln(&sb, v)
	}
	fmt.Fprintln(&sb, 2)
	fmt.Fprintf(&sb, "%.17g\n", spec.Time)
	fmt.Fprintln(&sb, len(spec.Levels)-1)
	g0 := spec.Levels[0].Geom
	fmt.Fprintf(&sb, "%.17g %.17g\n", g0.ProbLo[0], g0.ProbLo[1])
	fmt.Fprintf(&sb, "%.17g %.17g\n", g0.ProbHi[0], g0.ProbHi[1])
	for l := 0; l < len(spec.Levels)-1; l++ {
		if l > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", spec.Levels[l].RefRatio)
	}
	sb.WriteByte('\n')
	for l, lev := range spec.Levels {
		if l > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(seedFormatBox(lev.Geom.Domain))
	}
	sb.WriteByte('\n')
	for l := range spec.Levels {
		if l > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", spec.Step)
	}
	sb.WriteByte('\n')
	for _, lev := range spec.Levels {
		fmt.Fprintf(&sb, "%.17g %.17g\n", lev.Geom.CellSize[0], lev.Geom.CellSize[1])
	}
	fmt.Fprintln(&sb, 0)
	fmt.Fprintln(&sb, 0)
	return sb.String()
}

func seedEncodeCellH(spec Spec, level int) string {
	lev := spec.Levels[level]
	var sb strings.Builder
	fmt.Fprintln(&sb, 1)
	fmt.Fprintln(&sb, 1)
	fmt.Fprintln(&sb, spec.NComp())
	fmt.Fprintln(&sb, 0)
	fmt.Fprintf(&sb, "(%d 0\n", lev.BA.Len())
	for _, b := range lev.BA.Boxes {
		fmt.Fprintln(&sb, seedFormatBox(b))
	}
	fmt.Fprintln(&sb, ")")
	fmt.Fprintln(&sb, lev.BA.Len())
	offsets := map[int]int64{}
	for i, b := range lev.BA.Boxes {
		rank := lev.DM.Owner[i]
		fmt.Fprintf(&sb, "FabOnDisk: Cell_D_%05d %d\n", rank, offsets[rank])
		offsets[rank] += int64(len(seedFabHeader(b, spec.NComp()))) + b.NumPts()*int64(spec.NComp())*8
	}
	return sb.String()
}

func seedEncodeCellD(lev LevelSpec, owned []int, ncomp int) []byte {
	var buf bytes.Buffer
	for _, idx := range owned {
		b := lev.BA.Boxes[idx]
		buf.WriteString(seedFabHeader(b, ncomp))
		f := lev.State().FABs[idx]
		vals := make([]float64, 0, b.NumPts())
		for c := 0; c < ncomp; c++ {
			vals = vals[:0]
			for j := b.Lo.Y; j <= b.Hi.Y; j++ {
				for i := b.Lo.X; i <= b.Hi.X; i++ {
					vals = append(vals, f.At(i, j, c))
				}
			}
			_ = binary.Write(&buf, binary.LittleEndian, vals)
		}
	}
	return buf.Bytes()
}

func seedEncodeCheckpointHeader(spec CheckpointSpec) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, CheckpointFormatVersion)
	fmt.Fprintf(&sb, "%d\n", spec.Step)
	fmt.Fprintf(&sb, "%.17g\n", spec.Time)
	fmt.Fprintf(&sb, "%.17g\n", spec.LastDt)
	fmt.Fprintf(&sb, "%d\n", spec.NComp)
	fmt.Fprintf(&sb, "%d\n", spec.NProcs)
	fmt.Fprintf(&sb, "%d\n", len(spec.Levels))
	for _, lev := range spec.Levels {
		g := lev.Geom
		fmt.Fprintf(&sb, "%s %.17g %.17g %.17g %.17g %d\n",
			seedFormatBox(g.Domain), g.ProbLo[0], g.ProbLo[1], g.ProbHi[0], g.ProbHi[1], lev.RefRatio)
		fmt.Fprintf(&sb, "%d\n", lev.BA.Len())
		for i, b := range lev.BA.Boxes {
			fmt.Fprintf(&sb, "%s %d\n", seedFormatBox(b), lev.DM.Owner[i])
		}
	}
	return sb.String()
}

func seedEncodeJobInfo(spec Spec) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, "==============================================================================")
	fmt.Fprintln(&sb, " amrproxyio Job Information")
	fmt.Fprintln(&sb, "==============================================================================")
	fmt.Fprintf(&sb, "number of MPI processes: %d\n", spec.NProcs)
	fmt.Fprintf(&sb, "plot step: %d\n", spec.Step)
	fmt.Fprintf(&sb, "simulation time: %.17g\n", spec.Time)
	fmt.Fprintf(&sb, "levels: %d\n", len(spec.Levels))
	for l, lev := range spec.Levels {
		fmt.Fprintf(&sb, "level %d: %d grids, %d cells\n", l, lev.BA.Len(), lev.BA.NumPts())
	}
	return sb.String()
}

// --- fixtures ------------------------------------------------------------

// equivSpecs covers the formatting corners: irrational float values that
// stress %.17g, multi-digit box coordinates, many components, and ranks
// needing %05d padding.
func equivSpecs() []Spec {
	specs := []Spec{twoLevelSpec(4, true), twoLevelSpec(1, true)}

	dom := grid.NewBox(grid.IV(0, 0), grid.IV(1023, 767))
	g := grid.NewGeom(dom, [2]float64{-1.0 / 3.0, 0}, [2]float64{math.Pi, math.E})
	ba := amr.SingleBoxArray(dom, 256, 8)
	dm := amr.MustDistribute(ba, 12, amr.DistKnapsack)
	mf := amr.NewMultiFab(ba, dm, 5, 0)
	mf.ForEachFAB(func(idx int, f *amr.FAB) {
		for c := 0; c < 5; c++ {
			f.FillConst(c, math.Sqrt(float64(idx+1))*math.Pow(10, float64(c-2)))
		}
	})
	specs = append(specs, Spec{
		Root:     "plt31415",
		VarNames: []string{"a", "b", "c", "d", "e"},
		Time:     1.0 / 3.0,
		Step:     31415,
		NProcs:   12,
		Levels:   []LevelSpec{{Geom: g, BA: ba, DM: dm, RefRatio: 4, State: func() *amr.MultiFab { return mf }}},
	})
	return specs
}

// --- tests ---------------------------------------------------------------

func TestEncodeHeaderMatchesSeed(t *testing.T) {
	for i, spec := range equivSpecs() {
		if got, want := EncodeHeader(spec), seedEncodeHeader(spec); got != want {
			t.Errorf("spec %d: Header drifted from seed encoder:\n got %q\nwant %q", i, got, want)
		}
		if got, want := encodeJobInfo(spec), seedEncodeJobInfo(spec); got != want {
			t.Errorf("spec %d: job_info drifted from seed encoder:\n got %q\nwant %q", i, got, want)
		}
	}
}

func TestEncodeCellHMatchesSeed(t *testing.T) {
	for i, spec := range equivSpecs() {
		for l := range spec.Levels {
			if got, want := EncodeCellH(spec, l), seedEncodeCellH(spec, l); got != want {
				t.Errorf("spec %d level %d: Cell_H drifted from seed encoder:\n got %q\nwant %q", i, l, got, want)
			}
		}
	}
}

func TestEncodeCellDMatchesSeed(t *testing.T) {
	for i, spec := range equivSpecs() {
		for l, lev := range spec.Levels {
			for rank := 0; rank < spec.NProcs; rank++ {
				owned := lev.DM.RankBoxes(rank)
				if len(owned) == 0 {
					continue
				}
				got := encodeCellD(lev, owned, spec.NComp())
				want := seedEncodeCellD(lev, owned, spec.NComp())
				if !bytes.Equal(got, want) {
					t.Errorf("spec %d level %d rank %d: Cell_D drifted from seed encoder (%d vs %d bytes)",
						i, l, rank, len(got), len(want))
				}
				if int64(len(got)) != CellDBytes(lev.BA, owned, spec.NComp()) {
					t.Errorf("spec %d level %d rank %d: CellDBytes %d != encoded %d",
						i, l, rank, CellDBytes(lev.BA, owned, spec.NComp()), len(got))
				}
			}
		}
	}
}

func TestEncodeCheckpointHeaderMatchesSeed(t *testing.T) {
	for i, spec := range equivSpecs() {
		ck := CheckpointSpec{
			Root:   "chk" + spec.Root,
			Time:   spec.Time,
			Step:   spec.Step,
			LastDt: spec.Time / 7,
			NComp:  spec.NComp(),
			Levels: spec.Levels,
			NProcs: spec.NProcs,
		}
		if got, want := encodeCheckpointHeader(ck), seedEncodeCheckpointHeader(ck); got != want {
			t.Errorf("spec %d: checkpoint Header drifted from seed encoder:\n got %q\nwant %q", i, got, want)
		}
	}
}

func TestFormatBoxAndFabHeaderMatchSeed(t *testing.T) {
	boxes := []grid.Box{
		grid.NewBox(grid.IV(0, 0), grid.IV(0, 0)),
		grid.NewBox(grid.IV(7, 19), grid.IV(131071, 99999)),
		grid.NewBox(grid.IV(-32, -8), grid.IV(-1, 255)),
	}
	for _, b := range boxes {
		if got, want := formatBox(b), seedFormatBox(b); got != want {
			t.Errorf("formatBox(%v) = %q, want %q", b, got, want)
		}
		for _, ncomp := range []int{1, 10, 123} {
			if got, want := fabHeader(b, ncomp), seedFabHeader(b, ncomp); got != want {
				t.Errorf("fabHeader(%v, %d) = %q, want %q", b, ncomp, got, want)
			}
			if got, want := fabHeaderLen(b, ncomp), len(seedFabHeader(b, ncomp)); got != want {
				t.Errorf("fabHeaderLen(%v, %d) = %d, want %d", b, ncomp, got, want)
			}
		}
	}
}

func TestAppendZeroPaddedMatchesFmt(t *testing.T) {
	for _, v := range []int64{0, 3, 42, 4095, 99999, 100000, 1234567, -1, -42, -99999} {
		got := string(appendZeroPadded(nil, v, 5))
		want := fmt.Sprintf("%05d", v)
		if got != want {
			t.Errorf("appendZeroPadded(%d, 5) = %q, want %q", v, got, want)
		}
	}
	for _, rank := range []int{0, 7, 31, 99999, 123456} {
		got := CellDPath("plt00040", 2, rank)
		want := fmt.Sprintf("%s/Level_%d/Cell_D_%05d", "plt00040", 2, rank)
		if got != want {
			t.Errorf("CellDPath rank %d = %q, want %q", rank, got, want)
		}
	}
}

// TestEncodeCellDAllocations is the allocation gate for the tentpole: one
// buffer per Cell_D file, nothing per component or per row.
func TestEncodeCellDAllocations(t *testing.T) {
	spec := twoLevelSpec(2, true)
	lev := spec.Levels[0]
	owned := lev.DM.RankBoxes(0)
	if len(owned) == 0 {
		t.Fatal("fixture rank 0 owns no boxes")
	}
	allocs := testing.AllocsPerRun(20, func() {
		_ = encodeCellD(lev, owned, spec.NComp())
	})
	if allocs > 1 {
		t.Errorf("encodeCellD allocates %.1f objects per file, want <= 1 (the output buffer)", allocs)
	}
}

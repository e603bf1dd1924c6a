package plotfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/iosim"
)

// FormatVersion is the first line of every Header.
const FormatVersion = "AMReX-PlotfileProxy-V1.0"

// LevelSpec describes one mesh level of a plot dump.
type LevelSpec struct {
	Geom     grid.Geom
	BA       amr.BoxArray
	DM       amr.DistributionMapping
	RefRatio int // ratio to the next finer level (unused on the finest)
	// State supplies field data; nil selects size-only accounting. It
	// is called only when a Cell_D file is encoded, so a producer may
	// derive the data there.
	State func() *amr.MultiFab
}

// Spec is a complete plot dump description.
type Spec struct {
	Root     string // plotfile directory name, e.g. "plt00020"
	VarNames []string
	Time     float64
	Step     int
	Levels   []LevelSpec
	NProcs   int
}

// NComp returns the number of plotted components.
func (s Spec) NComp() int { return len(s.VarNames) }

// OutputRecord summarizes bytes written for one (step, level, rank) cell
// of the paper's Eq. (2) hierarchy.
type OutputRecord struct {
	Step  int   `json:"step"`
	Level int   `json:"level"`
	Rank  int   `json:"rank"`
	Bytes int64 `json:"bytes"`
}

// Write emits the full plotfile through fs, returning the per-(level,rank)
// records. Every file is priced at its exact size and serialized only on
// RealDisk: there a level with State has its FAB data encoded, and a
// level without it is priced by size alone.
//
// The burst is one plain sequence on the caller's goroutine: rank 0's
// metadata (the directories, Header, job_info and every Cell_H), then
// each rank's Cell_D files in rank-major order. Every write's price
// depends only on its rank, that rank's clock and the size, so visiting
// ranks in turn yields the ledger a concurrent writer would.
func Write(fs *iosim.FileSystem, spec Spec) ([]OutputRecord, error) {
	if spec.NProcs < 1 {
		return nil, fmt.Errorf("plotfile: nprocs = %d", spec.NProcs)
	}
	if len(spec.Levels) == 0 {
		return nil, fmt.Errorf("plotfile: no levels")
	}
	fs.BeginBurst(spec.NProcs)
	defer fs.EndBurst()

	sizes, err := writePlotMeta(fs, spec)
	if err != nil {
		return nil, err
	}
	out, err := writeCellDs(fs, spec.Root, spec.Step, spec.Levels, spec.NProcs, sizes, spec.NComp(), false)
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(out, func(a, b OutputRecord) int { return a.Level - b.Level })
	return out, nil
}

// writePlotMeta writes rank 0's share of a plotfile: the root and level
// directories, Header, job_info and each level's Cell_H, each priced at
// its rendered length and encoded only if the filesystem materializes
// it. It returns the per-rank totals Cell_H's FabOnDisk offsets sum to:
// sizes[l*NProcs+rank] is rank's Cell_D size at level l.
func writePlotMeta(fs *iosim.FileSystem, spec Spec) ([]int64, error) {
	labels := iosim.Labels{Step: spec.Step}
	if err := fs.Mkdir(0, spec.Root, labels); err != nil {
		return nil, err
	}
	if _, err := fs.Write(0, spec.Root+"/Header", int64(headerLen(spec)),
		func() []byte { return []byte(EncodeHeader(spec)) }, labels); err != nil {
		return nil, err
	}
	if _, err := fs.Write(0, spec.Root+"/job_info", int64(jobInfoLen(spec)),
		func() []byte { return []byte(encodeJobInfo(spec)) }, labels); err != nil {
		return nil, err
	}
	n := spec.NProcs
	sizes := make([]int64, len(spec.Levels)*n)
	for l := range spec.Levels {
		labels.Level = l
		dir := levelDir(spec.Root, l)
		if err := fs.Mkdir(0, dir, labels); err != nil {
			return nil, err
		}
		if _, err := fs.Write(0, dir+"/Cell_H", int64(cellHLen(spec, l, sizes[l*n:(l+1)*n])),
			func() []byte { return []byte(EncodeCellH(spec, l)) }, labels); err != nil {
			return nil, err
		}
	}
	return sizes, nil
}

// writeCellDs writes every rank's Cell_D files, rank-major and each
// rank's levels in ascending order, and returns one record per file in
// that order. sizes[l*nprocs+rank] is rank's file size at level l; a
// rank writes a level's file only when it owns boxes there (the paper's
// "file only when the task has data"), so a size of 0 writes nothing.
// A level with State hands iosim its encoder unless sizeOnly is set.
func writeCellDs(fs *iosim.FileSystem, root string, step int, levels []LevelSpec, nprocs int, sizes []int64, ncomp int, sizeOnly bool) ([]OutputRecord, error) {
	files := 0
	for _, n := range sizes {
		if n > 0 {
			files++
		}
	}
	out := make([]OutputRecord, 0, files)
	for rank := 0; rank < nprocs; rank++ {
		for l, lev := range levels {
			nbytes := sizes[l*nprocs+rank]
			if nbytes == 0 {
				continue
			}
			var encode func() []byte
			if lev.State != nil && !sizeOnly {
				encode = func() []byte { return encodeCellD(lev, lev.DM.RankBoxes(rank), ncomp) }
			}
			if _, err := fs.Write(rank, CellDPath(root, l, rank), nbytes, encode, iosim.Labels{Step: step, Level: l}); err != nil {
				return nil, err
			}
			out = append(out, OutputRecord{Step: step, Level: l, Rank: rank, Bytes: nbytes})
		}
	}
	return out, nil
}

// rankCellDBytes sums each rank's FAB bytes per level in one pass over
// the boxes, laid out as writeCellDs reads them: sizes[l*nprocs+rank],
// 0 where the rank owns nothing (every FAB record has a header, so no
// owned file is empty).
func rankCellDBytes(levels []LevelSpec, nprocs, ncomp int) []int64 {
	out := make([]int64, len(levels)*nprocs)
	for l, lev := range levels {
		for i, bx := range lev.BA.Boxes {
			if o := lev.DM.Owner[i]; o >= 0 && o < nprocs {
				out[l*nprocs+o] += fabBytes(bx, ncomp)
			}
		}
	}
	return out
}

// levelDir names the per-level subdirectory: "<root>/Level_<l>".
func levelDir(root string, level int) string {
	b := make([]byte, 0, len(root)+16)
	b = append(b, root...)
	b = append(b, "/Level_"...)
	b = strconv.AppendInt(b, int64(level), 10)
	return string(b)
}

// CellDPath names the Cell_D file rank writes at a level:
// "<root>/Level_<l>/Cell_D_<rank %05d>".
func CellDPath(root string, level, rank int) string {
	var buf [64]byte // the usual path fits: one allocation, the string
	b := append(buf[:0], root...)
	b = append(b, "/Level_"...)
	b = strconv.AppendInt(b, int64(level), 10)
	b = append(b, "/Cell_D_"...)
	b = appendZeroPadded(b, int64(rank), 5)
	return string(b)
}

// appendFloat17 appends v the way fmt's %.17g renders it.
func appendFloat17(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', 17, 64)
}

// appendZeroPadded appends v zero-padded to the given total width (sign
// included), matching fmt's %0*d.
func appendZeroPadded(dst []byte, v int64, width int) []byte {
	if v < 0 {
		dst = append(dst, '-')
		v = -v
		width--
	}
	for n := intLen(v); n < width; n++ {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, v, 10)
}

// EncodeHeader renders the top-level Header file.
func EncodeHeader(spec Spec) string {
	b := make([]byte, 0, 256+32*len(spec.Levels))
	b = append(b, FormatVersion...)
	b = append(b, '\n')
	b = strconv.AppendInt(b, int64(spec.NComp()), 10)
	b = append(b, '\n')
	for _, v := range spec.VarNames {
		b = append(b, v...)
		b = append(b, '\n')
	}
	b = append(b, '2', '\n') // spacedim
	b = appendFloat17(b, spec.Time)
	b = append(b, '\n')
	b = strconv.AppendInt(b, int64(len(spec.Levels)-1), 10) // finest_level
	b = append(b, '\n')
	g0 := spec.Levels[0].Geom
	b = appendFloat17(b, g0.ProbLo[0])
	b = append(b, ' ')
	b = appendFloat17(b, g0.ProbLo[1])
	b = append(b, '\n')
	b = appendFloat17(b, g0.ProbHi[0])
	b = append(b, ' ')
	b = appendFloat17(b, g0.ProbHi[1])
	b = append(b, '\n')
	for l := 0; l < len(spec.Levels)-1; l++ {
		if l > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(spec.Levels[l].RefRatio), 10)
	}
	b = append(b, '\n')
	for l, lev := range spec.Levels {
		if l > 0 {
			b = append(b, ' ')
		}
		b = appendBox(b, lev.Geom.Domain)
	}
	b = append(b, '\n')
	for l := range spec.Levels {
		if l > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(spec.Step), 10)
	}
	b = append(b, '\n')
	for _, lev := range spec.Levels {
		b = appendFloat17(b, lev.Geom.CellSize[0])
		b = append(b, ' ')
		b = appendFloat17(b, lev.Geom.CellSize[1])
		b = append(b, '\n')
	}
	b = append(b, '0', '\n') // coord_sys: cartesian
	b = append(b, '0', '\n') // boundary width
	return string(b)
}

// jobInfoRule frames job_info's title.
const jobInfoRule = "=============================================================================="

func encodeJobInfo(spec Spec) string {
	b := make([]byte, 0, 4*len(jobInfoRule))
	b = append(b, jobInfoRule...)
	b = append(b, '\n')
	b = append(b, " amrproxyio Job Information\n"...)
	b = append(b, jobInfoRule...)
	b = append(b, '\n')
	b = append(b, "number of MPI processes: "...)
	b = strconv.AppendInt(b, int64(spec.NProcs), 10)
	b = append(b, "\nplot step: "...)
	b = strconv.AppendInt(b, int64(spec.Step), 10)
	b = append(b, "\nsimulation time: "...)
	b = appendFloat17(b, spec.Time)
	b = append(b, "\nlevels: "...)
	b = strconv.AppendInt(b, int64(len(spec.Levels)), 10)
	b = append(b, '\n')
	for l, lev := range spec.Levels {
		b = append(b, "level "...)
		b = strconv.AppendInt(b, int64(l), 10)
		b = append(b, ": "...)
		b = strconv.AppendInt(b, int64(lev.BA.Len()), 10)
		b = append(b, " grids, "...)
		b = strconv.AppendInt(b, lev.BA.NumPts(), 10)
		b = append(b, " cells\n"...)
	}
	return string(b)
}

// EncodeCellH renders the per-level Cell_H metadata file.
func EncodeCellH(spec Spec, level int) string {
	lev := spec.Levels[level]
	b := make([]byte, 0, 64+48*lev.BA.Len())
	b = append(b, '1', '\n') // version
	b = append(b, '1', '\n') // how
	b = strconv.AppendInt(b, int64(spec.NComp()), 10)
	b = append(b, '\n')
	b = append(b, '0', '\n') // nghost on disk
	b = append(b, '(')
	b = strconv.AppendInt(b, int64(lev.BA.Len()), 10)
	b = append(b, " 0\n"...)
	for _, bx := range lev.BA.Boxes {
		b = appendBox(b, bx)
		b = append(b, '\n')
	}
	b = append(b, ")\n"...)
	b = strconv.AppendInt(b, int64(lev.BA.Len()), 10)
	b = append(b, '\n')
	// Fab locations: file per owning rank, offset within that rank's file.
	offsets := map[int]int64{}
	for i, bx := range lev.BA.Boxes {
		rank := lev.DM.Owner[i]
		b = append(b, "FabOnDisk: Cell_D_"...)
		b = appendZeroPadded(b, int64(rank), 5)
		b = append(b, ' ')
		b = strconv.AppendInt(b, offsets[rank], 10)
		b = append(b, '\n')
		offsets[rank] += fabBytes(bx, spec.NComp())
	}
	return string(b)
}

// Rendered lengths of the metadata files, which price them on every
// backend and which a RealDisk write checks its encoding against. Each
// mirrors its encoder line by line; TestModelOnlyMetaSizeMatchesEncode pins each equal to
// len of the encoder's output.

// headerLen is len(EncodeHeader(spec)).
func headerLen(spec Spec) int {
	n := len(FormatVersion) + 1 + intLen(spec.NComp()) + 1
	for _, v := range spec.VarNames {
		n += len(v) + 1
	}
	n += 2 + float17Len(spec.Time) + 1 + intLen(len(spec.Levels)-1) + 1
	g0 := spec.Levels[0].Geom
	n += float17Len(g0.ProbLo[0]) + 1 + float17Len(g0.ProbLo[1]) + 1
	n += float17Len(g0.ProbHi[0]) + 1 + float17Len(g0.ProbHi[1]) + 1
	for l, lev := range spec.Levels {
		if l < len(spec.Levels)-1 {
			n += intLen(lev.RefRatio) + 1 // the ratio, then a space or the newline
		}
		n += boxLen(lev.Geom.Domain) + 1 + intLen(spec.Step) + 1
		n += float17Len(lev.Geom.CellSize[0]) + 1 + float17Len(lev.Geom.CellSize[1]) + 1
	}
	if len(spec.Levels) == 1 {
		n++ // the empty ref-ratio line
	}
	return n + 4
}

// jobInfoLen is len(encodeJobInfo(spec)).
func jobInfoLen(spec Spec) int {
	n := 2*(len(jobInfoRule)+1) + len(" amrproxyio Job Information\n")
	n += len("number of MPI processes: ") + intLen(spec.NProcs)
	n += len("\nplot step: ") + intLen(spec.Step)
	n += len("\nsimulation time: ") + float17Len(spec.Time)
	n += len("\nlevels: ") + intLen(len(spec.Levels)) + 1
	for l, lev := range spec.Levels {
		n += len("level ") + intLen(l) + len(": ") + intLen(lev.BA.Len()) +
			len(" grids, ") + intLen(lev.BA.NumPts()) + len(" cells\n")
	}
	return n
}

// cellHLen is len(EncodeCellH(spec, level)). Each box's FabOnDisk offset
// comes from offsets, indexed by rank and zeroed first, so on return it
// holds each rank's total FAB bytes at the level: its Cell_D size. An
// owner outside it is no rank of the dump and writes no Cell_D; the
// length is then the encoder's own.
func cellHLen(spec Spec, level int, offsets []int64) int {
	lev := spec.Levels[level]
	nboxes, ncomp := lev.BA.Len(), spec.NComp()
	n := 4 + intLen(ncomp) + 1 + 2 + 1 + intLen(nboxes) + 3
	for _, bx := range lev.BA.Boxes {
		n += boxLen(bx) + 1
	}
	n += 2 + intLen(nboxes) + 1
	clear(offsets)
	foreign := false
	for i, bx := range lev.BA.Boxes {
		rank := lev.DM.Owner[i]
		if rank < 0 || rank >= len(offsets) {
			foreign = true
			continue
		}
		n += len("FabOnDisk: Cell_D_") + max(5, intLen(rank)) + 1 + intLen(offsets[rank]) + 1
		offsets[rank] += fabBytes(bx, ncomp)
	}
	if foreign {
		return len(EncodeCellH(spec, level))
	}
	return n
}

// float17Len is len(appendFloat17(nil, v)), rendered on the stack.
func float17Len(v float64) int {
	var buf [32]byte
	return len(appendFloat17(buf[:0], v))
}

// boxLen is the rendered length of appendBox(nil, b).
func boxLen(b grid.Box) int {
	return len("((") + intLen(b.Lo.X) + 1 + intLen(b.Lo.Y) +
		len(") (") + intLen(b.Hi.X) + 1 + intLen(b.Hi.Y) + len(") (0,0))")
}

// appendBox appends a box the AMReX way: ((lox,loy) (hix,hiy) (0,0)).
func appendBox(dst []byte, b grid.Box) []byte {
	dst = append(dst, '(', '(')
	dst = strconv.AppendInt(dst, int64(b.Lo.X), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(b.Lo.Y), 10)
	dst = append(dst, ") ("...)
	dst = strconv.AppendInt(dst, int64(b.Hi.X), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(b.Hi.Y), 10)
	dst = append(dst, ") (0,0))"...)
	return dst
}

// formatBox renders a box the AMReX way: ((lox,loy) (hix,hiy) (0,0)).
func formatBox(b grid.Box) string {
	return string(appendBox(make([]byte, 0, 40), b))
}

// appendFabHeader appends the per-FAB ASCII header preceding binary data.
func appendFabHeader(dst []byte, b grid.Box, ncomp int) []byte {
	dst = append(dst, "FAB "...)
	dst = appendBox(dst, b)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(ncomp), 10)
	return append(dst, '\n')
}

// fabHeader renders the per-FAB ASCII header preceding the binary data.
func fabHeader(b grid.Box, ncomp int) string {
	return string(appendFabHeader(make([]byte, 0, 56), b, ncomp))
}

// intLen returns the rendered decimal length of v (sign included). Box
// corners, ranks and counts mostly have at most four digits, which the
// comparisons settle without a division.
func intLen[T int | int64](v T) int {
	n := 1
	if v < 0 {
		n++
		v = -v
	}
	for ; v >= 10000; v /= 10000 {
		n += 4
	}
	switch {
	case v >= 1000:
		return n + 3
	case v >= 100:
		return n + 2
	case v >= 10:
		return n + 1
	}
	return n
}

// fabHeaderLen is len(fabHeader(b, ncomp)) computed without allocating —
// the size-only surrogate path calls it per box per dump.
func fabHeaderLen(b grid.Box, ncomp int) int {
	// "FAB " + "((lox,loy) (hix,hiy) (0,0))" + " " + ncomp + "\n"
	return len("FAB ") + boxLen(b) + 1 + intLen(ncomp) + 1
}

// fabBytes is the exact on-disk size of one FAB record.
func fabBytes(b grid.Box, ncomp int) int64 {
	return int64(fabHeaderLen(b, ncomp)) + b.NumPts()*int64(ncomp)*8
}

// CellDBytes is the exact size of the Cell_D file a rank writes for its
// owned boxes — used by the size-only path and verified against the data
// path in tests.
func CellDBytes(ba amr.BoxArray, owned []int, ncomp int) int64 {
	var n int64
	for _, idx := range owned {
		n += fabBytes(ba.Boxes[idx], ncomp)
	}
	return n
}

// encodeCellD serializes the owned FABs of a level: ASCII FAB header then
// little-endian float64 data, component-major, row-major within component
// — only valid-region cells, no ghosts. The buffer is preallocated at the
// exact CellDBytes size and values are emitted row-by-row straight from
// the FAB backing array with math.Float64bits, so encoding a Cell_D file
// costs one allocation total.
func encodeCellD(lev LevelSpec, owned []int, ncomp int) []byte {
	buf := make([]byte, 0, CellDBytes(lev.BA, owned, ncomp))
	state := lev.State()
	for _, idx := range owned {
		b := lev.BA.Boxes[idx]
		buf = appendFabHeader(buf, b, ncomp)
		f := state.FABs[idx]
		for c := 0; c < ncomp; c++ {
			for j := b.Lo.Y; j <= b.Hi.Y; j++ {
				for _, v := range f.Row(j, c) {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
				}
			}
		}
	}
	return buf
}

// TotalBytes sums a record set.
func TotalBytes(recs []OutputRecord) int64 {
	var n int64
	for _, r := range recs {
		n += r.Bytes
	}
	return n
}

// MaxAbs is a helper used by tests comparing round-tripped data.
func MaxAbs(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

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
	// State supplies field data; nil selects size-only accounting.
	State *amr.MultiFab
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
// records. If every LevelSpec has non-nil State the actual FAB data is
// serialized; otherwise sizes are modeled exactly.
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

	if err := writePlotMeta(fs, spec); err != nil {
		return nil, err
	}
	out, err := writeCellDs(fs, spec.Root, spec.Step, spec.Levels, spec.NProcs, spec.NComp(), false)
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(out, func(a, b OutputRecord) int { return a.Level - b.Level })
	return out, nil
}

// writePlotMeta writes rank 0's share of a plotfile: the root and level
// directories, Header, job_info and each level's Cell_H.
func writePlotMeta(fs *iosim.FileSystem, spec Spec) error {
	labels := iosim.Labels{Step: spec.Step}
	if err := fs.Mkdir(0, spec.Root, labels); err != nil {
		return err
	}
	if _, err := fs.Write(0, spec.Root+"/Header", []byte(EncodeHeader(spec)), labels); err != nil {
		return err
	}
	if _, err := fs.Write(0, spec.Root+"/job_info", []byte(encodeJobInfo(spec)), labels); err != nil {
		return err
	}
	for l := range spec.Levels {
		labels.Level = l
		if err := fs.Mkdir(0, levelDir(spec.Root, l), labels); err != nil {
			return err
		}
		if _, err := fs.Write(0, levelDir(spec.Root, l)+"/Cell_H", []byte(EncodeCellH(spec, l)), labels); err != nil {
			return err
		}
	}
	return nil
}

// writeCellDs writes every rank's Cell_D files, rank-major and each
// rank's levels in ascending order, and returns one record per file in
// that order. A rank writes a level's file only when it owns boxes there
// (the paper's "file only when the task has data"). A level is encoded
// from its State unless sizeOnly is set or it has none, in which case
// the identical file is priced through WriteSize at its exact size.
func writeCellDs(fs *iosim.FileSystem, root string, step int, levels []LevelSpec, nprocs, ncomp int, sizeOnly bool) ([]OutputRecord, error) {
	sizes := make([][]int64, len(levels))
	for l, lev := range levels {
		if sizeOnly || lev.State == nil {
			sizes[l] = rankCellDBytes(lev, nprocs, ncomp)
		}
	}
	out := make([]OutputRecord, 0, nprocs*len(levels))
	for rank := 0; rank < nprocs; rank++ {
		for l, lev := range levels {
			labels := iosim.Labels{Step: step, Level: l}
			var nbytes int64
			var err error
			if sizes[l] != nil {
				if nbytes = sizes[l][rank]; nbytes == 0 {
					continue
				}
				_, err = fs.WriteSize(rank, CellDPath(root, l, rank), nbytes, labels)
			} else {
				owned := lev.DM.RankBoxes(rank)
				if len(owned) == 0 {
					continue
				}
				data := encodeCellD(lev, owned, ncomp)
				nbytes = int64(len(data))
				_, err = fs.Write(rank, CellDPath(root, l, rank), data, labels)
			}
			if err != nil {
				return nil, err
			}
			out = append(out, OutputRecord{Step: step, Level: l, Rank: rank, Bytes: nbytes})
		}
	}
	return out, nil
}

// rankCellDBytes is CellDBytes for every rank's owned boxes at a level,
// in one pass over the boxes instead of one per rank; 0 means the rank
// owns nothing there (every FAB record has a header, so none is empty).
func rankCellDBytes(lev LevelSpec, nprocs, ncomp int) []int64 {
	out := make([]int64, nprocs)
	for i, bx := range lev.BA.Boxes {
		if o := lev.DM.Owner[i]; o >= 0 && o < nprocs {
			out[o] += fabBytes(bx, ncomp)
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
	for n := intLen(int(v)); n < width; n++ {
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

func encodeJobInfo(spec Spec) string {
	const rule = "=============================================================================="
	b := make([]byte, 0, 4*len(rule))
	b = append(b, rule...)
	b = append(b, '\n')
	b = append(b, " amrproxyio Job Information\n"...)
	b = append(b, rule...)
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

// intLen returns the rendered decimal length of v (sign included).
func intLen(v int) int {
	n := 1
	if v < 0 {
		n++
		v = -v
	}
	for v >= 10 {
		n++
		v /= 10
	}
	return n
}

// fabHeaderLen is len(fabHeader(b, ncomp)) computed without allocating —
// the size-only surrogate path calls it per box per dump.
func fabHeaderLen(b grid.Box, ncomp int) int {
	// "FAB " + "((lox,loy) (hix,hiy) (0,0))" + " " + ncomp + "\n"
	return len("FAB ") +
		len("((") + intLen(b.Lo.X) + 1 + intLen(b.Lo.Y) +
		len(") (") + intLen(b.Hi.X) + 1 + intLen(b.Hi.Y) +
		len(") (0,0))") + 1 + intLen(ncomp) + 1
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
	for _, idx := range owned {
		b := lev.BA.Boxes[idx]
		buf = appendFabHeader(buf, b, ncomp)
		f := lev.State.FABs[idx]
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

package plotfile

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/iosim"
)

// Checkpoint-restart output. The paper (§III.A) notes that "AMReX also
// supports the generation of checkpoint-restart data in a similar manner"
// to plotfiles — the same N-to-N per-level pattern, but carrying the raw
// conserved state (with enough metadata to resume: step, time, dt). The
// study focuses on plotfiles; checkpoints are implemented here both for
// completeness and because amr.check_int appears in the baseline inputs
// (Listing 2), so campaign variants can include checkpoint traffic.

// CheckpointFormatVersion heads every checkpoint Header.
const CheckpointFormatVersion = "AMReX-CheckpointProxy-V1.0"

// CheckpointSpec describes a checkpoint dump.
type CheckpointSpec struct {
	Root   string // e.g. "sedov_2d_cyl_in_cart_chk00020"
	Time   float64
	Step   int
	LastDt float64
	NComp  int // conserved components
	Levels []LevelSpec
	NProcs int
	// SizeOnly prices the checkpoint without materializing state — the
	// exact Cell_D sizes through WriteSize, like a state-free plot
	// level. A size-only checkpoint cannot restart (nothing round-trips)
	// but produces the identical ledger: it exists for the surrogate
	// engine, whose hierarchy carries no field memory.
	SizeOnly bool
}

// WriteCheckpoint emits the checkpoint through fs in the same plain
// sequence as Write: rank 0's directories and Header, then every rank's
// Cell_D files rank-major. Unless spec.SizeOnly, State must be non-nil
// on every level — a restartable checkpoint always carries data.
func WriteCheckpoint(fs *iosim.FileSystem, spec CheckpointSpec) ([]OutputRecord, error) {
	if spec.NProcs < 1 || len(spec.Levels) == 0 {
		return nil, fmt.Errorf("plotfile: bad checkpoint spec (nprocs=%d levels=%d)", spec.NProcs, len(spec.Levels))
	}
	if !spec.SizeOnly {
		for l, lev := range spec.Levels {
			if lev.State == nil {
				return nil, fmt.Errorf("plotfile: checkpoint level %d has no state", l)
			}
		}
	}
	fs.BeginBurst(spec.NProcs)
	defer fs.EndBurst()

	labels := iosim.Labels{Step: spec.Step}
	if err := fs.Mkdir(0, spec.Root, labels); err != nil {
		return nil, err
	}
	if _, err := fs.Write(0, spec.Root+"/Header", []byte(encodeCheckpointHeader(spec)), labels); err != nil {
		return nil, err
	}
	for l := range spec.Levels {
		labels.Level = l
		if err := fs.Mkdir(0, levelDir(spec.Root, l), labels); err != nil {
			return nil, err
		}
	}
	return writeCellDs(fs, spec.Root, spec.Step, spec.Levels, spec.NProcs, spec.NComp, spec.SizeOnly)
}

// encodeCheckpointHeader writes everything restart needs: time state plus
// per-level geometry, box lists and owners. Like the plotfile metadata
// encoders it is a strconv-append builder — the per-box loop allocates
// nothing.
func encodeCheckpointHeader(spec CheckpointSpec) string {
	nboxes := 0
	for _, lev := range spec.Levels {
		nboxes += lev.BA.Len()
	}
	b := make([]byte, 0, 160+96*len(spec.Levels)+48*nboxes)
	b = append(b, CheckpointFormatVersion...)
	b = append(b, '\n')
	b = strconv.AppendInt(b, int64(spec.Step), 10)
	b = append(b, '\n')
	b = appendFloat17(b, spec.Time)
	b = append(b, '\n')
	b = appendFloat17(b, spec.LastDt)
	b = append(b, '\n')
	b = strconv.AppendInt(b, int64(spec.NComp), 10)
	b = append(b, '\n')
	b = strconv.AppendInt(b, int64(spec.NProcs), 10)
	b = append(b, '\n')
	b = strconv.AppendInt(b, int64(len(spec.Levels)), 10)
	b = append(b, '\n')
	for _, lev := range spec.Levels {
		g := lev.Geom
		b = appendBox(b, g.Domain)
		for _, v := range []float64{g.ProbLo[0], g.ProbLo[1], g.ProbHi[0], g.ProbHi[1]} {
			b = append(b, ' ')
			b = appendFloat17(b, v)
		}
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(lev.RefRatio), 10)
		b = append(b, '\n')
		b = strconv.AppendInt(b, int64(lev.BA.Len()), 10)
		b = append(b, '\n')
		for i, bx := range lev.BA.Boxes {
			b = appendBox(b, bx)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(lev.DM.Owner[i]), 10)
			b = append(b, '\n')
		}
	}
	return string(b)
}

// RestartLevel is one level recovered from a checkpoint.
type RestartLevel struct {
	Geom     grid.Geom
	BA       amr.BoxArray
	DM       amr.DistributionMapping
	RefRatio int
	// Data[i] holds box i's values, component-major, valid region only.
	Data [][]float64
}

// Restart is a parsed checkpoint.
type Restart struct {
	Step   int
	Time   float64
	LastDt float64
	NComp  int
	NProcs int
	Levels []RestartLevel
}

// ReadCheckpoint loads a checkpoint from a RealDisk directory.
func ReadCheckpoint(dir string) (Restart, error) {
	var rs Restart
	f, err := os.Open(filepath.Join(dir, "Header"))
	if err != nil {
		return rs, fmt.Errorf("plotfile: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", fmt.Errorf("plotfile: truncated checkpoint Header")
		}
		return strings.TrimSpace(sc.Text()), nil
	}
	version, err := next()
	if err != nil {
		return rs, err
	}
	if version != CheckpointFormatVersion {
		return rs, fmt.Errorf("plotfile: checkpoint version %q unsupported", version)
	}
	readInt := func() (int, error) {
		s, err := next()
		if err != nil {
			return 0, err
		}
		return strconv.Atoi(s)
	}
	readFloat := func() (float64, error) {
		s, err := next()
		if err != nil {
			return 0, err
		}
		return strconv.ParseFloat(s, 64)
	}
	if rs.Step, err = readInt(); err != nil {
		return rs, err
	}
	if rs.Time, err = readFloat(); err != nil {
		return rs, err
	}
	if rs.LastDt, err = readFloat(); err != nil {
		return rs, err
	}
	if rs.NComp, err = readInt(); err != nil {
		return rs, err
	}
	if rs.NProcs, err = readInt(); err != nil {
		return rs, err
	}
	nLevels, err := readInt()
	if err != nil {
		return rs, err
	}
	for l := 0; l < nLevels; l++ {
		line, err := next()
		if err != nil {
			return rs, err
		}
		lev, err := parseLevelLine(line)
		if err != nil {
			return rs, fmt.Errorf("plotfile: level %d: %w", l, err)
		}
		nboxes, err := readInt()
		if err != nil {
			return rs, err
		}
		for b := 0; b < nboxes; b++ {
			line, err := next()
			if err != nil {
				return rs, err
			}
			box, owner, err := parseBoxOwner(line)
			if err != nil {
				return rs, fmt.Errorf("plotfile: level %d box %d: %w", l, b, err)
			}
			lev.BA.Boxes = append(lev.BA.Boxes, box)
			lev.DM.Owner = append(lev.DM.Owner, owner)
		}
		rs.Levels = append(rs.Levels, lev)
	}
	// Load the per-rank data files.
	for l := range rs.Levels {
		lev := &rs.Levels[l]
		lev.Data = make([][]float64, lev.BA.Len())
		offsets := map[int]int64{}
		cache := map[int][]byte{}
		for i, b := range lev.BA.Boxes {
			rank := lev.DM.Owner[i]
			raw, ok := cache[rank]
			if !ok {
				raw, err = os.ReadFile(filepath.Join(dir, fmt.Sprintf("Level_%d", l), fmt.Sprintf("Cell_D_%05d", rank)))
				if err != nil {
					return rs, fmt.Errorf("plotfile: %w", err)
				}
				cache[rank] = raw
			}
			vals, err := decodeFAB(raw[offsets[rank]:], b, rs.NComp)
			if err != nil {
				return rs, fmt.Errorf("plotfile: level %d box %d: %w", l, i, err)
			}
			lev.Data[i] = vals
			offsets[rank] += fabBytes(b, rs.NComp)
		}
	}
	return rs, nil
}

// parseLevelLine parses "((lo) (hi) (0,0)) plo0 plo1 phi0 phi1 ratio".
func parseLevelLine(line string) (RestartLevel, error) {
	var lev RestartLevel
	// formatBox nests single parens inside one outer pair, so the box
	// token ends at the only "))" in the line.
	end := strings.Index(line, "))")
	if end < 0 {
		return lev, fmt.Errorf("bad level line %q", line)
	}
	boxTok := line[:end+2]
	dom, err := parseBox(boxTok)
	if err != nil {
		return lev, err
	}
	fields := strings.Fields(line[len(boxTok):])
	if len(fields) != 5 {
		return lev, fmt.Errorf("bad level tail %q", line)
	}
	var nums [4]float64
	for i := 0; i < 4; i++ {
		if nums[i], err = strconv.ParseFloat(fields[i], 64); err != nil {
			return lev, err
		}
	}
	ratio, err := strconv.Atoi(fields[4])
	if err != nil {
		return lev, err
	}
	lev.Geom = grid.NewGeom(dom, [2]float64{nums[0], nums[1]}, [2]float64{nums[2], nums[3]})
	lev.RefRatio = ratio
	return lev, nil
}

// parseBoxOwner parses "((..) (..) (..)) owner".
func parseBoxOwner(line string) (grid.Box, int, error) {
	idx := strings.LastIndex(line, ")")
	if idx < 0 {
		return grid.Box{}, 0, fmt.Errorf("bad box line %q", line)
	}
	box, err := parseBox(line[:idx+1])
	if err != nil {
		return grid.Box{}, 0, err
	}
	owner, err := strconv.Atoi(strings.TrimSpace(line[idx+1:]))
	if err != nil {
		return grid.Box{}, 0, err
	}
	return box, owner, nil
}

// FillMultiFabFromRestart copies a restart level's data into a freshly
// allocated MultiFab (valid regions only; ghosts are refilled by the
// driver's FillPatch).
func FillMultiFabFromRestart(lev RestartLevel, ncomp, nghost int) *amr.MultiFab {
	mf := amr.NewMultiFab(lev.BA, lev.DM, ncomp, nghost)
	for i, f := range mf.FABs {
		vals := lev.Data[i]
		vi := 0
		b := f.ValidBox
		for c := 0; c < ncomp; c++ {
			for j := b.Lo.Y; j <= b.Hi.Y; j++ {
				for i2 := b.Lo.X; i2 <= b.Hi.X; i2++ {
					f.Set(i2, j, c, vals[vi])
					vi++
				}
			}
		}
	}
	return mf
}

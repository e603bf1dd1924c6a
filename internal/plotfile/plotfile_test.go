package plotfile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/iosim"
)

// twoLevelSpec builds a small two-level hierarchy with filled state data.
func twoLevelSpec(nprocs int, withState bool) Spec {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(31, 31))
	g0 := grid.NewGeom(dom, [2]float64{0, 0}, [2]float64{1, 1})
	ba0 := amr.SingleBoxArray(dom, 16, 8)
	dm0 := amr.MustDistribute(ba0, nprocs, amr.DistKnapsack)

	fineBA := amr.NewBoxArray([]grid.Box{
		grid.NewBox(grid.IV(16, 16), grid.IV(31, 31)),
		grid.NewBox(grid.IV(32, 16), grid.IV(47, 31)),
	})
	dm1 := amr.MustDistribute(fineBA, nprocs, amr.DistKnapsack)
	g1 := g0.Refine(2)

	spec := Spec{
		Root:     "plt00040",
		VarNames: []string{"density", "xmom", "ymom"},
		Time:     0.0125,
		Step:     40,
		NProcs:   nprocs,
		Levels: []LevelSpec{
			{Geom: g0, BA: ba0, DM: dm0, RefRatio: 2},
			{Geom: g1, BA: fineBA, DM: dm1, RefRatio: 2},
		},
	}
	if withState {
		for l := range spec.Levels {
			mf := amr.NewMultiFab(spec.Levels[l].BA, spec.Levels[l].DM, 3, 0)
			mf.ForEachFAB(func(idx int, f *amr.FAB) {
				for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
					for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
						f.Set(i, j, 0, float64(i)+float64(j)/100)
						f.Set(i, j, 1, float64(l))
						f.Set(i, j, 2, float64(idx))
					}
				}
			})
			spec.Levels[l].State = func() *amr.MultiFab { return mf }
		}
	}
	return spec
}

func TestWriteProducesFig2Structure(t *testing.T) {
	dir := t.TempDir()
	cfg := iosim.DefaultConfig()
	cfg.Backend = iosim.RealDisk
	fs := iosim.New(cfg, dir)
	spec := twoLevelSpec(4, true)
	recs, err := Write(fs, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Top-level metadata.
	for _, p := range []string{"Header", "job_info", "Level_0/Cell_H", "Level_1/Cell_H"} {
		if _, err := os.Stat(filepath.Join(dir, spec.Root, p)); err != nil {
			t.Errorf("missing %s: %v", p, err)
		}
	}
	// Per-task data files: level 0 has 4 boxes on 4 ranks -> 4 files.
	matches, _ := filepath.Glob(filepath.Join(dir, spec.Root, "Level_0", "Cell_D_*"))
	if len(matches) != 4 {
		t.Errorf("level 0 data files = %d, want 4", len(matches))
	}
	// Level 1 has 2 boxes -> exactly 2 ranks have data (paper: file only
	// when a task owns data at that level).
	matches, _ = filepath.Glob(filepath.Join(dir, spec.Root, "Level_1", "Cell_D_*"))
	if len(matches) != 2 {
		t.Errorf("level 1 data files = %d, want 2", len(matches))
	}
	if len(recs) != 6 {
		t.Errorf("records = %d, want 6", len(recs))
	}
}

// TestSizeOnlyMatchesDataPath runs the data side on RealDisk, the one
// backend on which a level with State is encoded, so the size-only
// records are checked against the encoder's.
func TestSizeOnlyMatchesDataPath(t *testing.T) {
	diskCfg := iosim.DefaultConfig()
	diskCfg.Backend = iosim.RealDisk
	fsData := iosim.New(diskCfg, t.TempDir())
	fsSize := iosim.New(iosim.DefaultConfig(), "")

	withData := twoLevelSpec(3, true)
	sizeOnly := twoLevelSpec(3, false)

	recsData, err := Write(fsData, withData)
	if err != nil {
		t.Fatal(err)
	}
	recsSize, err := Write(fsSize, sizeOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(recsData) != len(recsSize) {
		t.Fatalf("record counts differ: %d vs %d", len(recsData), len(recsSize))
	}
	for i := range recsData {
		if recsData[i] != recsSize[i] {
			t.Errorf("record %d: data path %+v != size path %+v", i, recsData[i], recsSize[i])
		}
	}
	if TotalBytes(recsData) != TotalBytes(recsSize) {
		t.Error("total bytes differ between data and size paths")
	}
}

func TestRecordBytesMatchFormula(t *testing.T) {
	fs := iosim.New(iosim.DefaultConfig(), "")
	spec := twoLevelSpec(1, true)
	recs, err := Write(fs, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Single rank: one record per level; bytes = sum over boxes of
	// header + 8 * cells * ncomp.
	for _, r := range recs {
		lev := spec.Levels[r.Level]
		want := CellDBytes(lev.BA, lev.DM.RankBoxes(0), 3)
		if r.Bytes != want {
			t.Errorf("level %d bytes = %d, want %d", r.Level, r.Bytes, want)
		}
		// Data dominated by the raw field payload.
		raw := lev.BA.NumPts() * 3 * 8
		if r.Bytes <= raw || r.Bytes > raw+int64(lev.BA.Len()*128) {
			t.Errorf("level %d bytes = %d implausible vs raw %d", r.Level, r.Bytes, raw)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := iosim.DefaultConfig()
	cfg.Backend = iosim.RealDisk
	fs := iosim.New(cfg, dir)
	spec := twoLevelSpec(2, true)
	if _, err := Write(fs, spec); err != nil {
		t.Fatal(err)
	}
	m, err := ReadHeader(filepath.Join(dir, spec.Root))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != FormatVersion {
		t.Errorf("version = %q", m.Version)
	}
	if len(m.VarNames) != 3 || m.VarNames[0] != "density" {
		t.Errorf("varnames = %v", m.VarNames)
	}
	if m.Time != spec.Time || m.FinestLevel != 1 {
		t.Errorf("time/finest = %g/%d", m.Time, m.FinestLevel)
	}
	if m.ProbLo != [2]float64{0, 0} || m.ProbHi != [2]float64{1, 1} {
		t.Errorf("prob bounds = %v %v", m.ProbLo, m.ProbHi)
	}
	if len(m.RefRatios) != 1 || m.RefRatios[0] != 2 {
		t.Errorf("ref ratios = %v", m.RefRatios)
	}
	if len(m.Domains) != 2 || !m.Domains[0].Equal(spec.Levels[0].Geom.Domain) {
		t.Errorf("domains = %v", m.Domains)
	}
	if m.Steps[0] != 40 || m.CellSizes[1][0] != spec.Levels[1].Geom.CellSize[0] {
		t.Errorf("steps/cellsizes = %v %v", m.Steps, m.CellSizes)
	}
}

func TestDataRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := iosim.DefaultConfig()
	cfg.Backend = iosim.RealDisk
	fs := iosim.New(cfg, dir)
	spec := twoLevelSpec(4, true)
	if _, err := Write(fs, spec); err != nil {
		t.Fatal(err)
	}
	for l := range spec.Levels {
		rl, err := ReadLevelData(filepath.Join(dir, spec.Root), l, 3)
		if err != nil {
			t.Fatalf("level %d: %v", l, err)
		}
		if len(rl.Boxes) != spec.Levels[l].BA.Len() {
			t.Fatalf("level %d boxes = %d", l, len(rl.Boxes))
		}
		for i, b := range rl.Boxes {
			if !b.Equal(spec.Levels[l].BA.Boxes[i]) {
				t.Errorf("level %d box %d = %v", l, i, b)
			}
			want := FABValuesOf(spec.Levels[l].State(), i)
			if len(want) != len(rl.Data[i]) {
				t.Fatalf("level %d box %d data len %d != %d", l, i, len(rl.Data[i]), len(want))
			}
			if MaxAbs(want, rl.Data[i]) != 0 {
				t.Errorf("level %d box %d data mismatch", l, i)
			}
		}
	}
}

func TestCellHOffsetsAreCumulative(t *testing.T) {
	spec := twoLevelSpec(1, false)
	ch := EncodeCellH(spec, 0)
	lines := strings.Split(ch, "\n")
	var offsets []int64
	for _, ln := range lines {
		if strings.HasPrefix(ln, "FabOnDisk:") {
			var off int64
			var file string
			if _, err := fmtSscan(ln, &file, &off); err != nil {
				t.Fatalf("parse %q: %v", ln, err)
			}
			offsets = append(offsets, off)
		}
	}
	if len(offsets) != 4 {
		t.Fatalf("offsets = %v", offsets)
	}
	if offsets[0] != 0 {
		t.Errorf("first offset = %d", offsets[0])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] <= offsets[i-1] {
			t.Errorf("offsets not increasing: %v", offsets)
		}
	}
}

// fmtSscan extracts the file and offset from a FabOnDisk line.
func fmtSscan(line string, file *string, off *int64) (int, error) {
	fields := strings.Fields(line)
	*file = fields[1]
	v, err := parseInt64(fields[2])
	*off = v
	return 2, err
}

func parseInt64(s string) (int64, error) {
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, os.ErrInvalid
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

func TestWriteValidations(t *testing.T) {
	fs := iosim.New(iosim.DefaultConfig(), "")
	if _, err := Write(fs, Spec{NProcs: 0, Levels: []LevelSpec{{}}}); err == nil {
		t.Error("nprocs=0 accepted")
	}
	if _, err := Write(fs, Spec{NProcs: 1}); err == nil {
		t.Error("no levels accepted")
	}
}

func TestLedgerLabels(t *testing.T) {
	fs := iosim.New(iosim.DefaultConfig(), "")
	spec := twoLevelSpec(2, false)
	if _, err := Write(fs, spec); err != nil {
		t.Fatal(err)
	}
	byLevel, byStep := map[int]int64{}, map[int]int64{}
	for _, r := range fs.Ledger() {
		byLevel[r.Labels.Level] += r.Bytes
		byStep[r.Labels.Step] += r.Bytes
	}
	if len(byLevel) != 2 {
		t.Errorf("levels in ledger = %v", byLevel)
	}
	if _, ok := byStep[40]; !ok || len(byStep) != 1 {
		t.Errorf("steps in ledger = %v", byStep)
	}
}

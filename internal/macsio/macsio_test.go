package macsio

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"amrproxyio/internal/iosim"
)

func modelFS() *iosim.FileSystem {
	c := iosim.DefaultConfig()
	c.JitterSigma = 0
	return iosim.New(c, "")
}

func TestValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Interface = "netcdf" },
		func(c *Config) { c.FileMode = "MIX" },
		func(c *Config) { c.NumDumps = 0 },
		func(c *Config) { c.PartSize = 4 },
		func(c *Config) { c.AvgNumParts = 0 },
		func(c *Config) { c.VarsPerPart = 0 },
		func(c *Config) { c.DatasetGrowth = 0 },
		func(c *Config) { c.NProcs = 0 },
		func(c *Config) { c.ComputeTime = -1 },
	}
	for i, mut := range cases {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestEncoderSizeParity(t *testing.T) {
	// The analytic size must equal the encoder's output, for every
	// interface and several value counts — this is what makes size-only
	// Summit-scale runs byte-exact.
	for _, iface := range []Interface{IfaceMiftmpl, IfaceJSON, IfaceHDF5, IfaceSilo} {
		for _, nvals := range []int{1, 7, 100, 1024, 9999} {
			for _, vars := range []int{1, 3} {
				for _, meta := range []int64{0, 1000} {
					data := EncodeDataFile(iface, 3, 5, nvals, vars, meta)
					want := DataFileSize(iface, nvals, vars, meta)
					if int64(len(data)) != want {
						t.Fatalf("%s nvals=%d vars=%d meta=%d: encoded %d != computed %d",
							iface, nvals, vars, meta, len(data), want)
					}
				}
			}
		}
	}
}

func TestJSONOutputIsValidJSON(t *testing.T) {
	data := EncodeDataFile(IfaceMiftmpl, 0, 0, 50, 2, 0)
	var v map[string]interface{}
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data[:200])
	}
	if _, ok := v["macsio"]; !ok {
		t.Error("missing macsio header object")
	}
	vars, ok := v["vars"].([]interface{})
	if !ok || len(vars) != 2 {
		t.Fatalf("vars = %v", v["vars"])
	}
}

func TestJSONInflationFactor(t *testing.T) {
	// Fixed-width text encoding inflates 8-byte doubles by ~3x — the
	// textual factor inside the paper's f ≈ 23-25.
	inf := JSONInflation(100000)
	if inf < 2.5 || inf > 3.5 {
		t.Errorf("JSON inflation = %g, expected ~3", inf)
	}
}

func TestRootMetaValidJSON(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProcs = 4
	data := EncodeRootMeta(cfg, 2)
	var v map[string]interface{}
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("invalid root JSON: %v", err)
	}
}

func TestRunFig3Layout(t *testing.T) {
	fs := modelFS()
	cfg := DefaultConfig()
	cfg.NProcs = 4
	cfg.NumDumps = 3
	cfg.PartSize = 8000
	recs, err := Run(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 { // 4 ranks x 3 dumps
		t.Fatalf("records = %d", len(recs))
	}
	paths := map[string]bool{}
	for _, r := range fs.Ledger() {
		paths[r.Path] = true
	}
	// Fig. 3 names: per-task data files and per-step root files.
	for step := 0; step < 3; step++ {
		for rank := 0; rank < 4; rank++ {
			want := fmt.Sprintf("macsio_json_%05d_%03d.json", rank, step)
			if !paths[want] {
				t.Errorf("missing data file %s", want)
			}
		}
		root := fmt.Sprintf("macsio_json_root_%03d.json", step)
		if !paths[root] {
			t.Errorf("missing root file %s", root)
		}
	}
}

func TestDatasetGrowthGeometric(t *testing.T) {
	fs := modelFS()
	cfg := DefaultConfig()
	cfg.NProcs = 2
	cfg.NumDumps = 5
	cfg.PartSize = 80000
	cfg.DatasetGrowth = 1.1
	recs, err := Run(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := BytesPerStep(recs)
	for s := 1; s < 5; s++ {
		ratio := float64(per[s]) / float64(per[s-1])
		if math.Abs(ratio-1.1) > 0.02 {
			t.Errorf("step %d growth ratio = %g, want ~1.1", s, ratio)
		}
	}
}

func TestNominalBytesFormula(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PartSize = 1000
	cfg.VarsPerPart = 2
	cfg.AvgNumParts = 1
	cfg.NProcs = 4
	cfg.DatasetGrowth = 2
	if got := cfg.NominalBytes(0, 0); got != 2000 {
		t.Errorf("step 0 nominal = %d", got)
	}
	if got := cfg.NominalBytes(0, 3); got != 16000 {
		t.Errorf("step 3 nominal = %d", got)
	}
}

func TestAvgNumPartsFractional(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProcs = 4
	cfg.AvgNumParts = 1.5 // 6 parts over 4 ranks: 2,2,1,1
	total := 0
	for r := 0; r < 4; r++ {
		total += cfg.partsForRank(r)
	}
	if total != 6 {
		t.Errorf("total parts = %d, want 6", total)
	}
	if cfg.partsForRank(0) != 2 || cfg.partsForRank(3) != 1 {
		t.Errorf("parts = %d,%d", cfg.partsForRank(0), cfg.partsForRank(3))
	}
}

func TestSizeOnlyMatchesDataPath(t *testing.T) {
	run := func(sizeOnly bool) []DumpRecord {
		fs := modelFS()
		cfg := DefaultConfig()
		cfg.NProcs = 3
		cfg.NumDumps = 4
		cfg.PartSize = 16000
		cfg.DatasetGrowth = 1.0131
		cfg.SizeOnly = sizeOnly
		recs, err := Run(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("record counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSIFSingleSharedFile(t *testing.T) {
	fs := modelFS()
	cfg := DefaultConfig()
	cfg.NProcs = 4
	cfg.NumDumps = 2
	cfg.FileMode = ModeSIF
	if _, err := Run(fs, cfg); err != nil {
		t.Fatal(err)
	}
	dataPaths := map[string]bool{}
	for _, r := range fs.Ledger() {
		if !strings.Contains(r.Path, "root") {
			dataPaths[r.Path] = true
		}
	}
	if len(dataPaths) != 2 { // one shared file per step
		t.Errorf("SIF data files = %v", dataPaths)
	}
}

func TestMIFGrouping(t *testing.T) {
	fs := modelFS()
	cfg := DefaultConfig()
	cfg.NProcs = 8
	cfg.NumDumps = 1
	cfg.MIFFiles = 2
	if _, err := Run(fs, cfg); err != nil {
		t.Fatal(err)
	}
	dataPaths := map[string]bool{}
	for _, r := range fs.Ledger() {
		if !strings.Contains(r.Path, "root") {
			dataPaths[r.Path] = true
		}
	}
	if len(dataPaths) != 2 {
		t.Errorf("MIF-2 data files = %d, want 2", len(dataPaths))
	}
}

func TestComputeTimeAdvancesClock(t *testing.T) {
	fs := modelFS()
	cfg := DefaultConfig()
	cfg.NProcs = 1
	cfg.NumDumps = 3
	cfg.ComputeTime = 1.0
	if _, err := Run(fs, cfg); err != nil {
		t.Fatal(err)
	}
	if clock := fs.Clock(0); clock < 3.0 {
		t.Errorf("rank 0 clock = %g, want >= 3 (compute) + write time", clock)
	}
	// Bursty pattern: write start times separated by >= compute_time.
	var starts []float64
	for _, r := range fs.Ledger() {
		if strings.Contains(r.Path, "root") {
			continue
		}
		starts = append(starts, r.Start)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i]-starts[i-1] < 1.0 {
			t.Errorf("bursts not separated by compute_time: %v", starts)
			break
		}
	}
}

func TestParseArgsListing1(t *testing.T) {
	// The paper's Listing 1 invocation shape.
	cfg, err := ParseArgs(strings.Fields(
		"--interface miftmpl --parallel_file_mode MIF 32 --num_dumps 20 " +
			"--part_size 1550000 --avg_num_parts 1 --vars_per_part 1 " +
			"--compute_time 0.5 --meta_size 1024 --dataset_growth 1.013075 --nprocs 32"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Interface != IfaceMiftmpl || cfg.FileMode != ModeMIF || cfg.MIFFiles != 32 {
		t.Errorf("iface/mode = %v %v %d", cfg.Interface, cfg.FileMode, cfg.MIFFiles)
	}
	if cfg.NumDumps != 20 || cfg.PartSize != 1550000 || cfg.DatasetGrowth != 1.013075 {
		t.Errorf("params = %+v", cfg)
	}
	if cfg.ComputeTime != 0.5 || cfg.MetaSize != 1024 || cfg.NProcs != 32 {
		t.Errorf("params = %+v", cfg)
	}
}

func TestParseArgsSuffixesAndErrors(t *testing.T) {
	cfg, err := ParseArgs(strings.Fields("--part_size 2M"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PartSize != 2*1024*1024 {
		t.Errorf("part_size = %d", cfg.PartSize)
	}
	if _, err := ParseArgs(strings.Fields("--bogus 1")); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, err := ParseArgs(strings.Fields("--num_dumps")); err == nil {
		t.Error("missing value accepted")
	}
	if _, err := ParseArgs(strings.Fields("--num_dumps x")); err == nil {
		t.Error("bad int accepted")
	}
}

func TestCommandLineRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProcs = 16
	cfg.PartSize = 123456
	cfg.DatasetGrowth = 1.0131
	cfg.ComputeTime = 0.25
	cfg.MetaSize = 2048
	line := cfg.CommandLine()
	if !strings.HasPrefix(line, "macsio ") {
		t.Fatalf("line = %q", line)
	}
	parsed, err := ParseArgs(strings.Fields(strings.TrimPrefix(line, "macsio ")))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.PartSize != cfg.PartSize || parsed.NProcs != cfg.NProcs {
		t.Errorf("round trip: %+v", parsed)
	}
	if math.Abs(parsed.DatasetGrowth-cfg.DatasetGrowth) > 1e-6 {
		t.Errorf("growth round trip: %g", parsed.DatasetGrowth)
	}
}

// TestMacsioDumpAllocations is the allocation gate for a size-only MACSio
// run: about one allocation per dump record — its data-file path — plus
// the root metadata file per dump, and nothing that scales with a
// goroutine or a message per rank.
func TestMacsioDumpAllocations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProcs = 512
	cfg.NumDumps = 4
	cfg.SizeOnly = true
	fsCfg := iosim.DefaultConfig()
	fsCfg.RetainLedger = iosim.RetainNone
	fs := iosim.New(fsCfg, "")
	recs, err := Run(fs, cfg) // grows the shard table once
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Run(fs, cfg); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / float64(len(recs))
	t.Logf("%.0f allocations for %d records (%.2f per record)", allocs, len(recs), perRecord)
	if perRecord > 2 {
		t.Errorf("size-only Run allocates %.2f objects per record, want <= 2", perRecord)
	}
}

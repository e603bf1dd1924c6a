// Cross-module integration tests: each test exercises a full paper
// workflow through several packages at once (solver -> plotfile -> ledger
// -> model -> proxy -> comparison), asserting the invariants that the
// per-package unit tests cannot see.
package amrproxyio_test

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/core"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/plotfile"
	"amrproxyio/internal/report"
	"amrproxyio/internal/sim"
	"amrproxyio/internal/surrogate"
)

func testFS() *iosim.FileSystem {
	cfg := iosim.DefaultConfig()
	cfg.JitterSigma = 0
	return iosim.New(cfg, "")
}

// TestHydroAndSurrogateAgreeAtLevelZero checks that the two execution
// engines model exactly the same L0 output bytes for the same inputs —
// the property that justifies the Summit-scale substitution.
func TestHydroAndSurrogateAgreeAtLevelZero(t *testing.T) {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{64, 64}
	cfg.MaxLevel = 0
	cfg.MaxStep = 8
	cfg.PlotInt = 4
	cfg.NProcs = 4
	cfg.MaxGridSize = 32
	cfg.StopTime = 10

	hfs := testFS()
	s, err := sim.New(cfg, sim.DefaultOptions(), hfs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	sfs := testFS()
	r, err := surrogate.New(cfg, surrogate.DefaultOptions(), sfs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	l0Bytes := func(fs *iosim.FileSystem) (n int64) {
		for _, r := range fs.Ledger() {
			if r.Labels.Level == 0 {
				n += r.Bytes
			}
		}
		return n
	}
	hBytes, sBytes := l0Bytes(hfs), l0Bytes(sfs)
	// Both wrote 3 plots of the same L0 box layout; the Cell_D payloads
	// are byte-identical by construction. Headers can differ by a few
	// bytes (different time stamps widths), so compare to 0.1%.
	if math.Abs(float64(hBytes-sBytes))/float64(hBytes) > 0.001 {
		t.Errorf("L0 bytes differ: hydro %d vs surrogate %d", hBytes, sBytes)
	}
}

// TestPaperLoopEndToEnd walks Fig. 1 completely: Castro run -> ledger ->
// translation -> MACSio run -> per-step workload comparison, asserting the
// proxy reproduces the measured series within the paper's tolerance.
func TestPaperLoopEndToEnd(t *testing.T) {
	pivot := campaign.Case4Variant(0.4, 3).Scaled(8)
	res, err := campaign.Run(pivot, testFS())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultTranslateOptions()
	opts.Match = core.MatchFileBytes
	tr, err := core.Translate(pivot.Inputs(), res.Records, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The translated config must be runnable as-is.
	proxyFS := testFS()
	proxyRecs, err := macsio.Run(proxyFS, tr.MACSio)
	if err != nil {
		t.Fatal(err)
	}
	_, measured := core.PerStepBytes(res.Records)
	proxyPerStep := macsio.BytesPerStep(proxyRecs)
	if len(proxyPerStep) != len(measured) {
		t.Fatalf("dump counts differ: %d vs %d", len(proxyPerStep), len(measured))
	}
	var meas, prox []float64
	for k, m := range measured {
		meas = append(meas, float64(m))
		prox = append(prox, float64(proxyPerStep[k]))
	}
	// Aggregate totals within 15%, per-step correlation strong.
	var mSum, pSum float64
	for i := range meas {
		mSum += meas[i]
		pSum += prox[i]
	}
	if rel := math.Abs(pSum-mSum) / mSum; rel > 0.15 {
		t.Errorf("total bytes mismatch: %.1f%%", rel*100)
	}
	// The proxy's growth trend must correlate with the measurement.
	if len(meas) > 3 && meas[len(meas)-1] > meas[0] {
		if prox[len(prox)-1] <= prox[0] {
			t.Error("proxy lost the growth trend")
		}
	}
}

// TestPlotfileOnDiskMatchesLedger writes real plotfiles and confirms the
// ledger's byte counts equal the files on disk.
func TestPlotfileOnDiskMatchesLedger(t *testing.T) {
	dir := t.TempDir()
	fsCfg := iosim.DefaultConfig()
	fsCfg.Backend = iosim.RealDisk
	fs := iosim.New(fsCfg, dir)

	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{32, 32}
	cfg.MaxLevel = 1
	cfg.MaxStep = 4
	cfg.PlotInt = 4
	cfg.NProcs = 2
	cfg.MaxGridSize = 16
	s, err := sim.New(cfg, sim.DefaultOptions(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, rec := range fs.Ledger() {
		if rec.Dir {
			continue // zero-byte directory metadata records have no file size
		}
		full := filepath.Join(dir, rec.Path)
		if info, err := statFile(full); err != nil {
			t.Errorf("%s: %v", rec.Path, err)
		} else if info != rec.Bytes {
			t.Errorf("%s: disk %d bytes, ledger %d", rec.Path, info, rec.Bytes)
		}
	}
	// Headers parse and agree with the run's configuration.
	root := filepath.Join(dir, "sedov_2d_cyl_in_cart_plt00000")
	meta, err := plotfile.ReadHeader(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.VarNames) != len(sim.PlotVarNames) {
		t.Errorf("plot vars = %d", len(meta.VarNames))
	}
}

// TestReportsRenderFromLiveRuns drives the reporting layer from live data
// end to end (every figure function at least once).
func TestReportsRenderFromLiveRuns(t *testing.T) {
	pivot := campaign.Case4Variant(0.6, 2).Scaled(16)
	res, err := campaign.Run(pivot, testFS())
	if err != nil {
		t.Fatal(err)
	}
	results := []campaign.Result{res}
	if out := report.Fig5(results).Render(); !strings.Contains(out, "Fig. 5") {
		t.Error("Fig5 broken")
	}
	if out := report.Fig6(results).Render(); !strings.Contains(out, "Fig. 6") {
		t.Error("Fig6 broken")
	}
	if out := report.Fig7(res).Render(); !strings.Contains(out, "L0") {
		t.Error("Fig7 broken")
	}
	p8, _ := report.Fig8(res, 0)
	if out := p8.Render(); !strings.Contains(out, "Fig. 8") {
		t.Error("Fig8 broken")
	}
	tr, err := core.Translate(pivot.Inputs(), res.Records, core.DefaultTranslateOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, measured := core.PerStepBytes(res.Records)
	if out := report.Fig9(measured, tr.Trace, tr.Kernel.Base).Render(); !strings.Contains(out, "measured") {
		t.Error("Fig9 broken")
	}
	p10, mapes := report.Fig10(results, []core.Translation{tr})
	if !strings.Contains(p10.Render(), "model") || len(mapes) != 1 {
		t.Error("Fig10 broken")
	}
	if out := report.TableIII(results); !strings.Contains(out, pivot.Name) {
		t.Error("TableIII broken")
	}
	if out := report.Listing1(tr, pivot.NProcs); !strings.Contains(out, "jsrun") {
		t.Error("Listing1 broken")
	}
}

// TestCharacterizationAcrossEngines compares the Darshan-style profiles of
// the application and its calibrated proxy: file counts, burst counts and
// per-rank imbalance should be of the same magnitude — that is what makes
// the proxy a usable stand-in for I/O-system studies.
func TestCharacterizationAcrossEngines(t *testing.T) {
	pivot := campaign.Case4Variant(0.4, 2).Scaled(8)
	appFS := testFS()
	res, err := campaign.Run(pivot, appFS)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultTranslateOptions()
	opts.Match = core.MatchFileBytes
	tr, err := core.Translate(pivot.Inputs(), res.Records, opts)
	if err != nil {
		t.Fatal(err)
	}
	proxyFS := testFS()
	if _, err := macsio.Run(proxyFS, tr.MACSio); err != nil {
		t.Fatal(err)
	}
	app := iosim.Fold(appFS.Ledger()).Profile()
	proxy := iosim.Fold(proxyFS.Ledger()).Profile()
	if app.Bursts != proxy.Bursts {
		t.Errorf("burst counts differ: app %d vs proxy %d", app.Bursts, proxy.Bursts)
	}
	if rel := math.Abs(float64(app.TotalBytes-proxy.TotalBytes)) / float64(app.TotalBytes); rel > 0.15 {
		t.Errorf("profile totals differ by %.1f%%", rel*100)
	}
	if proxy.Ranks != pivot.NProcs {
		t.Errorf("proxy ranks = %d, want %d", proxy.Ranks, pivot.NProcs)
	}
}

// TestStorageTierSweep512Ranks is the storage-API acceptance scenario: a
// paper-scale 512-rank surrogate case swept across the three storage
// stacks on the Summit topology renders a StorageReport with non-zero
// drain and stall deltas — the burst buffer absorbs bytes, fills, stalls
// to the drain rate, and drains into the compute gaps, while the
// single-tier gpfs run shows none of that.
func TestStorageTierSweep512Ranks(t *testing.T) {
	base := campaign.Case{
		Name: "storage512", NCell: 4096, MaxLevel: 2, MaxStep: 20, PlotInt: 5,
		CFL: 0.5, NProcs: 512, Nodes: 128, Engine: campaign.EngineSurrogate,
		ComputeSeconds: 0.01,
	}
	sums := map[campaign.Storage]report.StorageSummary{}
	var ordered []report.StorageSummary
	stacks, err := campaign.ParseAxis("storage", "gpfs,bb,bb+gpfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range campaign.Cross([]campaign.Case{base}, stacks) {
		s := c.Storage
		cfg := c.FSConfig(true)
		cfg.JitterSigma = 0
		// A DataWarp-style per-job allocation instead of the whole 1.6 TB
		// NVMe, and a drain slower than the NVMe: bursts fill the
		// partition and stall. The deliberately slow per-writer GPFS
		// stream additionally throttles the tiered drain below the bb one.
		cfg.PerWriterBandwidth = 1e8
		cfg.BurstBuffer.NodeCapacity = 4e6
		cfg.BurstBuffer.DrainBandwidth = 8e8
		fs := iosim.New(cfg, "")
		if _, err := campaign.Run(c, fs); err != nil {
			t.Fatal(err)
		}
		sum := report.SummarizeStorage(string(s), iosim.Fold(fs.Ledger()))
		sums[s] = sum
		ordered = append(ordered, sum)
	}

	gpfs := sums[campaign.StorageGPFS]
	if gpfs.Bytes == 0 || gpfs.WallSeconds == 0 {
		t.Fatalf("gpfs run empty: %+v", gpfs)
	}
	if gpfs.BBBytes != 0 || gpfs.SpillBytes != 0 || gpfs.StallRanks != 0 || gpfs.DrainSeconds != 0 {
		t.Fatalf("single-tier run carries buffer fields: %+v", gpfs)
	}
	for _, s := range []campaign.Storage{campaign.StorageBB, campaign.StorageTiered} {
		sum := sums[s]
		if sum.Bytes != gpfs.Bytes {
			t.Errorf("%s moved %d bytes, gpfs %d: tiers must not change volumes", s, sum.Bytes, gpfs.Bytes)
		}
		// The acceptance deltas: non-zero drain and stall against gpfs.
		if sum.DrainSeconds <= 0 || sum.StallRanks == 0 || sum.StallSeconds <= 0 {
			t.Errorf("%s shows no drain/stall: %+v", s, sum)
		}
		if sum.OverlapSeconds <= 0 {
			t.Errorf("%s drain never overlapped the compute gaps: %+v", s, sum)
		}
		if sum.BBBytes+sum.SpillBytes == 0 || sum.MaxBBFill < 1 {
			t.Errorf("%s buffer never filled: %+v", s, sum)
		}
		if sum.WallSeconds == gpfs.WallSeconds {
			t.Errorf("%s wall identical to gpfs: the tier changed nothing", s)
		}
	}
	// The congested GPFS stream throttles the tiered drain below the
	// standalone bb drain: strictly more stall time.
	if sums[campaign.StorageTiered].StallSeconds <= sums[campaign.StorageBB].StallSeconds {
		t.Errorf("tiered stall %g <= bb stall %g: GPFS coupling missing",
			sums[campaign.StorageTiered].StallSeconds, sums[campaign.StorageBB].StallSeconds)
	}

	out := report.StorageReport(ordered)
	for _, want := range []string{"gpfs", "bb", "bb+gpfs", "stall-ranks", "drain", "overlap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("storage report missing %q:\n%s", want, out)
		}
	}
	t.Logf("512-rank storage sweep:\n%s", out)
}

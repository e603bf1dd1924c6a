// Benchmark harness: one bench per table and figure of the paper's
// evaluation section, plus ablation benches for the design choices
// ARCHITECTURE.md's Designs 1–10 describe. Paper-facing
// quantities are emitted through b.ReportMetric.
//
// Run everything:
//
//	go test -bench=. -benchmem .
package amrproxyio_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/campaign"
	"amrproxyio/internal/core"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/hydro"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/plotfile"
	"amrproxyio/internal/sedov"
	"amrproxyio/internal/sim"
	"amrproxyio/internal/stats"
	"amrproxyio/internal/surrogate"
)

func benchFS() *iosim.FileSystem {
	cfg := iosim.DefaultConfig()
	cfg.JitterSigma = 0
	return iosim.New(cfg, "")
}

// pivotFixture caches the scaled case4 pivot matrix (cfl x max_level) so
// the analysis benches don't re-run hydro per iteration.
var pivotFixture struct {
	once    sync.Once
	results []campaign.Result
	err     error
}

func pivotResults(b *testing.B) []campaign.Result {
	pivotFixture.once.Do(func() {
		for _, v := range []struct {
			cfl float64
			ml  int
		}{{0.3, 2}, {0.3, 4}, {0.6, 2}, {0.6, 4}} {
			c := campaign.Case4Variant(v.cfl, v.ml).Scaled(8)
			res, err := campaign.Run(c, benchFS())
			if err != nil {
				pivotFixture.err = err
				return
			}
			pivotFixture.results = append(pivotFixture.results, res)
		}
	})
	if pivotFixture.err != nil {
		b.Fatal(pivotFixture.err)
	}
	return pivotFixture.results
}

// --- Table I -------------------------------------------------------------

func BenchmarkTableI_InputParsing(b *testing.B) {
	listing2 := inputs.DefaultCastroInputs().ToFile().Encode()
	b.SetBytes(int64(len(listing2)))
	for i := 0; i < b.N; i++ {
		f, err := inputs.ParseString(listing2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inputs.FromFile(f); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II ------------------------------------------------------------

func BenchmarkTableII_MACSioArgs(b *testing.B) {
	args := strings.Fields("--interface miftmpl --parallel_file_mode MIF 32 " +
		"--num_dumps 21 --part_size 1550000 --avg_num_parts 1 --vars_per_part 1 " +
		"--compute_time 0.5 --meta_size 1024 --dataset_growth 1.013075 --nprocs 32")
	for i := 0; i < b.N; i++ {
		if _, err := macsio.ParseArgs(args); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table III -----------------------------------------------------------

// BenchmarkTableIII_Campaign executes the full 47-case quick campaign and
// reports its aggregate output volume. One iteration is the whole sweep.
func BenchmarkTableIII_Campaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var total int64
		var plots int
		for _, c := range campaign.QuickCampaign() {
			res, err := campaign.Run(c, benchFS())
			if err != nil {
				b.Fatalf("%s: %v", c.Name, err)
			}
			total += res.TotalBytes()
			plots += res.NPlots
		}
		b.ReportMetric(float64(total), "campaign-bytes")
		b.ReportMetric(float64(plots), "plot-events")
	}
}

// --- Fig. 2 --------------------------------------------------------------

func BenchmarkFig2_PlotfileStructure(b *testing.B) {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{32, 32}
	cfg.MaxLevel = 2
	cfg.MaxStep = 0 // just the initial plot
	cfg.PlotInt = 1
	cfg.NProcs = 4
	cfg.MaxGridSize = 16
	for i := 0; i < b.N; i++ {
		fs := benchFS()
		s, err := sim.New(cfg, sim.DefaultOptions(), fs)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.WritePlot(); err != nil {
			b.Fatal(err)
		}
		// Fig. 2 invariants: Header, per-level Cell_H, per-task Cell_D.
		var headers, cellH, cellD int
		for _, r := range fs.Ledger() {
			switch {
			case strings.HasSuffix(r.Path, "/Header"):
				headers++
			case strings.HasSuffix(r.Path, "/Cell_H"):
				cellH++
			case strings.Contains(r.Path, "/Cell_D_"):
				cellD++
			}
		}
		if headers != 1 || cellH < 1 || cellD < 1 {
			b.Fatalf("structure wrong: %d headers, %d Cell_H, %d Cell_D", headers, cellH, cellD)
		}
		b.ReportMetric(float64(cellD), "data-files")
	}
}

// --- Fig. 3 --------------------------------------------------------------

func BenchmarkFig3_MACSioLayout(b *testing.B) {
	cfg := macsio.DefaultConfig()
	cfg.NProcs = 8
	cfg.NumDumps = 4
	cfg.PartSize = 8192
	cfg.SizeOnly = true
	for i := 0; i < b.N; i++ {
		fs := benchFS()
		if _, err := macsio.Run(fs, cfg); err != nil {
			b.Fatal(err)
		}
		var data, root int
		for _, r := range fs.Ledger() {
			if strings.Contains(r.Path, "root") {
				root++
			} else {
				data++
			}
		}
		if data != 8*4 || root != 4 {
			b.Fatalf("layout wrong: %d data, %d root", data, root)
		}
	}
}

// --- Fig. 4 --------------------------------------------------------------

// BenchmarkFig4_SedovSolution advances the blast and reports the peak Mach
// number and the refined-region tracking of the analytic shock radius.
func BenchmarkFig4_SedovSolution(b *testing.B) {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{64, 64}
	cfg.MaxLevel = 2
	cfg.MaxStep = 200
	cfg.PlotInt = 0
	cfg.NProcs = 4
	cfg.MaxGridSize = 32
	for i := 0; i < b.N; i++ {
		s, err := sim.New(cfg, sim.DefaultOptions(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		spec := s.PlotSpec()
		mach := spec.Levels[len(spec.Levels)-1].State.Max(7)
		b.ReportMetric(mach, "peak-mach")
		b.ReportMetric(sedov.Default().ShockRadius(s.Time), "analytic-shock-radius")
		b.ReportMetric(float64(s.Levels[s.FinestLevel()].BA.NumPts()), "finest-cells")
	}
}

// --- Fig. 5 --------------------------------------------------------------

// BenchmarkFig5_CumulativeOutput runs a size/level sweep and reports the
// non-linearity: the ratio of the final cumulative slope to the initial
// slope (1.0 = perfectly linear; the paper's refined runs exceed it).
func BenchmarkFig5_CumulativeOutput(b *testing.B) {
	cases := []campaign.Case{
		{Name: "f5_small_l2", NCell: 32, MaxLevel: 2, MaxStep: 200, PlotInt: 10, CFL: 0.5, NProcs: 2, Engine: campaign.EngineHydro},
		{Name: "f5_mid_l2", NCell: 64, MaxLevel: 2, MaxStep: 200, PlotInt: 10, CFL: 0.5, NProcs: 4, Engine: campaign.EngineHydro},
		{Name: "f5_mid_l3", NCell: 64, MaxLevel: 3, MaxStep: 200, PlotInt: 10, CFL: 0.5, NProcs: 4, Engine: campaign.EngineHydro},
		{Name: "f5_big_l2", NCell: 2048, MaxLevel: 2, MaxStep: 200, PlotInt: 10, CFL: 0.5, NProcs: 16, Engine: campaign.EngineSurrogate},
	}
	for i := 0; i < b.N; i++ {
		var maxNonlin float64
		for _, c := range cases {
			res, err := campaign.Run(c, benchFS())
			if err != nil {
				b.Fatal(err)
			}
			xs, ys := core.CumulativeXY(res.Records, int64(c.NCell)*int64(c.NCell))
			if len(xs) >= 3 {
				first := ys[0] / xs[0]
				last := (ys[len(ys)-1] - ys[len(ys)-2]) / (xs[1] - xs[0])
				if nl := last / first; nl > maxNonlin {
					maxNonlin = nl
				}
			}
		}
		b.ReportMetric(maxNonlin, "max-slope-ratio")
	}
}

// --- Fig. 6 --------------------------------------------------------------

// BenchmarkFig6_CFLLevelDependency reproduces the pivot matrix and reports
// the paper's headline: max_level affects cumulative output more than CFL.
func BenchmarkFig6_CFLLevelDependency(b *testing.B) {
	results := pivotResults(b)
	totals := map[string]float64{}
	for _, r := range results {
		key := benchKey(r.Case.CFL, r.Case.MaxLevel)
		totals[key] = float64(r.TotalBytes())
	}
	for i := 0; i < b.N; i++ {
		levelEffect := totals[benchKey(0.3, 4)] / totals[benchKey(0.3, 2)]
		cflEffect := totals[benchKey(0.6, 2)] / totals[benchKey(0.3, 2)]
		if levelEffect <= cflEffect {
			b.Fatalf("paper shape violated: level effect %.3f <= cfl effect %.3f", levelEffect, cflEffect)
		}
		b.ReportMetric(levelEffect, "level-effect")
		b.ReportMetric(cflEffect, "cfl-effect")
	}
}

func benchKey(cfl float64, ml int) string {
	return strings.Join([]string{string(rune('0' + int(cfl*10))), string(rune('0' + ml))}, "_")
}

// --- Fig. 7 --------------------------------------------------------------

// BenchmarkFig7_PerLevelOutput reports L0 flatness (max/min per-step L0
// bytes, paper: ~1) and the growth of the refined levels.
func BenchmarkFig7_PerLevelOutput(b *testing.B) {
	results := pivotResults(b)
	r := results[3] // cfl 0.6, maxl 4
	for i := 0; i < b.N; i++ {
		_, byLevel := core.PerLevelPerStep(r.Records)
		l0 := byLevel[0]
		mn, mx := l0[0], l0[0]
		for _, v := range l0 {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		b.ReportMetric(float64(mx)/float64(mn), "L0-flatness")
		// The finest level carries the physics-driven growth (the shock
		// region it covers expands with the blast).
		finest := len(byLevel) - 1
		if series := byLevel[finest]; len(series) > 1 && series[0] > 0 {
			growth := float64(series[len(series)-1]) / float64(series[0])
			if growth <= 1.0 {
				b.Fatalf("finest level L%d did not grow: %g", finest, growth)
			}
			b.ReportMetric(growth, "finest-level-growth")
		}
	}
}

// --- Fig. 8 --------------------------------------------------------------

// BenchmarkFig8_PerTaskDistribution runs the case27 analogue and reports
// the per-task load imbalance (max/mean) at the refined levels.
func BenchmarkFig8_PerTaskDistribution(b *testing.B) {
	// Case27 at its paper scale (1024^2, 64 ranks) on the surrogate, with
	// the front advanced past the spin-up so many ranks own refined data;
	// 5 plot events, as the paper's Fig. 8 shows.
	c := campaign.Case27()
	c.MaxStep = 600
	c.PlotInt = 120
	c.Engine = campaign.EngineSurrogate
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(c, benchFS())
		if err != nil {
			b.Fatal(err)
		}
		_, byTask := core.PerTaskPerStep(res.Records, 1, c.NProcs)
		var lastStep []float64
		for _, series := range byTask {
			if len(series) > 0 {
				lastStep = append(lastStep, float64(series[len(series)-1]))
			}
		}
		imb := stats.ImbalanceRatio(lastStep)
		if imb <= 1.0 {
			b.Fatalf("refined level unexpectedly balanced: %g", imb)
		}
		b.ReportMetric(imb, "L1-imbalance")
	}
}

// --- Fig. 9 --------------------------------------------------------------

// BenchmarkFig9_GrowthCalibration calibrates dataset_growth against the
// pivot's measured series and reports the fitted factor (paper: 1.013075
// for case4 cfl 0.4 maxl 4) and the evaluation count.
func BenchmarkFig9_GrowthCalibration(b *testing.B) {
	results := pivotResults(b)
	_, measured := core.PerStepBytes(results[1].Records) // cfl 0.3, maxl 4
	for i := 0; i < b.N; i++ {
		model, trace := core.CalibrateGrowth(measured, float64(measured[0]), 1.0, 1.05)
		if model.Growth < 1.0 || model.Growth > 1.05 {
			b.Fatalf("growth out of range: %g", model.Growth)
		}
		b.ReportMetric(model.Growth, "dataset-growth")
		b.ReportMetric(float64(len(trace)), "calibration-evals")
	}
}

// --- Fig. 10 -------------------------------------------------------------

// BenchmarkFig10_ModelComparison translates all four pivot variants and
// reports the worst model MAPE (paper: visually "close enough").
func BenchmarkFig10_ModelComparison(b *testing.B) {
	results := pivotResults(b)
	for i := 0; i < b.N; i++ {
		var worst float64
		var growthSpread [2]float64
		growthSpread[0] = 2
		for _, r := range results {
			tr, err := core.Translate(r.Case.Inputs(), r.Records, core.DefaultTranslateOptions())
			if err != nil {
				b.Fatal(err)
			}
			if tr.MAPE > worst {
				worst = tr.MAPE
			}
			if tr.Kernel.Growth < growthSpread[0] {
				growthSpread[0] = tr.Kernel.Growth
			}
			if tr.Kernel.Growth > growthSpread[1] {
				growthSpread[1] = tr.Kernel.Growth
			}
		}
		if worst > 25 {
			b.Fatalf("model MAPE %.1f%% too large for the paper's 'close enough' claim", worst)
		}
		b.ReportMetric(worst, "worst-MAPE-pct")
		b.ReportMetric(growthSpread[0], "growth-min")
		b.ReportMetric(growthSpread[1], "growth-max")
	}
}

// --- Fig. 11 -------------------------------------------------------------

// BenchmarkFig11_LargeScale runs the 8192^2 surrogate and compares the
// kernel model at scale; the relative non-linearity shrinks (L0
// dominates), matching the paper.
func BenchmarkFig11_LargeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(campaign.LargeCase(), benchFS())
		if err != nil {
			b.Fatal(err)
		}
		tr, err := core.Translate(campaign.LargeCase().Inputs(), res.Records, core.DefaultTranslateOptions())
		if err != nil {
			b.Fatal(err)
		}
		_, perStep := core.PerStepBytes(res.Records)
		meas := make([]float64, len(perStep))
		for k, v := range perStep {
			meas[k] = float64(v)
		}
		mape := stats.MAPE(meas, tr.Kernel.PredictSeries(len(meas)))
		b.ReportMetric(mape, "kernel-MAPE-pct")
		b.ReportMetric(float64(res.TotalBytes()), "total-bytes")
		// Non-linearity at scale is tiny but non-zero: the paper's Fig. 11
		// y-axis spans ~0.03% (1.8410e10..1.8416e10). Report the per-step
		// variation in parts per million; it must be small yet positive
		// (the late regrid "jump").
		mn, mx := meas[0], meas[0]
		for _, v := range meas {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		ppm := (mx - mn) / mn * 1e6
		if ppm <= 0 {
			b.Fatal("large case perfectly flat: regrid jumps missing")
		}
		if ppm > 50000 { // > 5%: L0 should dominate at this scale
			b.Fatalf("large case variation %.0f ppm too large", ppm)
		}
		b.ReportMetric(ppm, "step-variation-ppm")
	}
}

// --- Listing 1 / Eq. 3 ---------------------------------------------------

func BenchmarkListing1_Translation(b *testing.B) {
	results := pivotResults(b)
	r := results[3]
	cfg := r.Case.Inputs()
	for i := 0; i < b.N; i++ {
		tr, err := core.Translate(cfg, r.Records, core.DefaultTranslateOptions())
		if err != nil {
			b.Fatal(err)
		}
		line := tr.MACSio.CommandLine()
		if !strings.Contains(line, "--parallel_file_mode MIF") {
			b.Fatal("Listing 1 shape broken")
		}
	}
}

// BenchmarkEq3_PartSizeFit fits the Eq. 3 factor f across the pivot
// matrix and reports its range (paper: 23-25 with ~20 plot variables;
// this implementation writes 10, so f lands proportionally lower).
func BenchmarkEq3_PartSizeFit(b *testing.B) {
	results := pivotResults(b)
	for i := 0; i < b.N; i++ {
		fmin, fmax := 1e9, 0.0
		for _, r := range results {
			_, perStep := core.PerStepBytes(r.Records)
			f := core.FitF(perStep[0], r.Case.NCell, r.Case.NCell, core.MatchNominal)
			if f < fmin {
				fmin = f
			}
			if f > fmax {
				fmax = f
			}
		}
		if fmin < 5 || fmax > 100 {
			b.Fatalf("f range [%.1f, %.1f] implausible", fmin, fmax)
		}
		b.ReportMetric(fmin, "f-min")
		b.ReportMetric(fmax, "f-max")
	}
}

// --- Ablations (design choices, see ARCHITECTURE.md) -----------------------

// BenchmarkAblationDistributionMapping compares per-task imbalance across
// the three decomposition strategies on the same hierarchy.
func BenchmarkAblationDistributionMapping(b *testing.B) {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{512, 512}
	cfg.MaxLevel = 2
	cfg.NProcs = 32
	cfg.MaxGridSize = 64
	for i := 0; i < b.N; i++ {
		for _, strat := range []amr.DistStrategy{amr.DistRoundRobin, amr.DistKnapsack, amr.DistSFC} {
			opts := surrogate.DefaultOptions()
			opts.Dist = strat
			fs := benchFS()
			r, err := surrogate.New(cfg, opts, fs)
			if err != nil {
				b.Fatal(err)
			}
			// Advance to a developed front, regrid there, dump once.
			for k := 0; k < 250; k++ {
				r.Advance()
			}
			if err := r.Rebuild(); err != nil {
				b.Fatal(err)
			}
			if err := r.WritePlot(); err != nil {
				b.Fatal(err)
			}
			// Imbalance on the refined levels only: L0 is uniform by
			// construction and would mask the decomposition differences.
			perRank := map[int]int64{}
			for _, rec := range fs.Ledger() {
				if rec.Labels.Level >= 1 {
					perRank[rec.Rank] += rec.Bytes
				}
			}
			loads := make([]float64, cfg.NProcs)
			for rank, v := range perRank {
				loads[rank] = float64(v)
			}
			b.ReportMetric(stats.ImbalanceRatio(loads), "imbalance-"+strat.String())
		}
	}
}

// BenchmarkAblationClustering sweeps grid_eff and reports file counts and
// cells: higher efficiency targets mean more, smaller boxes.
func BenchmarkAblationClustering(b *testing.B) {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{1024, 1024}
	cfg.MaxLevel = 2
	cfg.NProcs = 16
	cfg.MaxGridSize = 64
	for i := 0; i < b.N; i++ {
		var prevCells int64
		for _, eff := range []float64{0.5, 0.7, 0.9} {
			c := cfg
			c.GridEff = eff
			r, err := surrogate.New(c, surrogate.DefaultOptions(), nil)
			if err != nil {
				b.Fatal(err)
			}
			// Measure on a developed annular front, where clustering
			// efficiency actually matters (the initial disk is trivially
			// dense).
			for k := 0; k < 250; k++ {
				r.Advance()
			}
			if err := r.Rebuild(); err != nil {
				b.Fatal(err)
			}
			cells := r.BAs[len(r.BAs)-1].NumPts()
			boxes := r.BAs[len(r.BAs)-1].Len()
			b.ReportMetric(float64(boxes), "boxes-eff"+effTag(eff))
			b.ReportMetric(float64(cells), "cells-eff"+effTag(eff))
			if prevCells > 0 && cells > prevCells {
				b.Fatalf("higher grid_eff %g produced more cells (%d > %d)", eff, cells, prevCells)
			}
			prevCells = cells
		}
	}
}

func effTag(e float64) string {
	return string(rune('0' + int(e*10)))
}

// BenchmarkAblationFileMode compares MIF (N files per dump) against SIF
// (one shared file per dump) in the proxy.
func BenchmarkAblationFileMode(b *testing.B) {
	base := macsio.DefaultConfig()
	base.NProcs = 32
	base.NumDumps = 5
	base.PartSize = 100000
	base.SizeOnly = true
	for i := 0; i < b.N; i++ {
		for _, mode := range []macsio.FileMode{macsio.ModeMIF, macsio.ModeSIF} {
			cfg := base
			cfg.FileMode = mode
			fs := benchFS()
			if _, err := macsio.Run(fs, cfg); err != nil {
				b.Fatal(err)
			}
			files := map[string]bool{}
			for _, r := range fs.Ledger() {
				files[r.Path] = true
			}
			b.ReportMetric(float64(len(files)), "files-"+string(mode))
		}
	}
}

// BenchmarkAblationIOContention toggles the shared-bandwidth contention
// model and reports the burst wall-time ratio.
func BenchmarkAblationIOContention(b *testing.B) {
	mcfg := macsio.DefaultConfig()
	mcfg.NProcs = 64
	mcfg.NumDumps = 3
	mcfg.PartSize = 10 << 20
	mcfg.SizeOnly = true
	for i := 0; i < b.N; i++ {
		walls := map[bool]float64{}
		for _, contended := range []bool{false, true} {
			fsCfg := iosim.DefaultConfig()
			fsCfg.JitterSigma = 0
			if !contended {
				fsCfg.AggregateBandwidth = 1e18 // effectively infinite backend
			} else {
				fsCfg.AggregateBandwidth = 64e9 // constrained backend
			}
			fs := iosim.New(fsCfg, "")
			if _, err := macsio.Run(fs, mcfg); err != nil {
				b.Fatal(err)
			}
			stats := iosim.Fold(fs.Ledger()).Bursts()
			walls[contended] = stats[0].WallSeconds
		}
		ratio := walls[true] / walls[false]
		if ratio <= 1 {
			b.Fatalf("contention did not slow bursts: ratio %g", ratio)
		}
		b.ReportMetric(ratio, "contention-slowdown")
	}
}

// BenchmarkAblationCalibration compares the SSE golden-section calibration
// against the log-linear OLS alternative on the same measured series.
func BenchmarkAblationCalibration(b *testing.B) {
	results := pivotResults(b)
	_, measured := core.PerStepBytes(results[3].Records)
	target := make([]float64, len(measured))
	for i, v := range measured {
		target[i] = float64(v)
	}
	for i := 0; i < b.N; i++ {
		sseModel, _ := core.CalibrateGrowth(measured, float64(measured[0]), 1.0, 1.05)
		olsModel, err := core.CalibrateGrowthOLS(measured)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.MAPE(target, sseModel.PredictSeries(len(target))), "sse-MAPE")
		b.ReportMetric(stats.MAPE(target, olsModel.PredictSeries(len(target))), "ols-MAPE")
	}
}

// BenchmarkAblationReflux quantifies the coarse-fine flux correction: the
// composite-energy drift over 120 steps (past the init_shrink ramp, so
// real flux crosses the coarse-fine boundary) with and without refluxing.
func BenchmarkAblationReflux(b *testing.B) {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{32, 32}
	cfg.MaxLevel = 2
	cfg.MaxGridSize = 16
	cfg.RegridInt = 0 // frozen hierarchy isolates the flux correction
	cfg.NProcs = 4
	cfg.StopTime = 10
	for i := 0; i < b.N; i++ {
		drift := map[bool]float64{}
		for _, reflux := range []bool{false, true} {
			opts := sim.DefaultOptions()
			opts.Reflux = reflux
			s, err := sim.New(cfg, opts, nil)
			if err != nil {
				b.Fatal(err)
			}
			e0 := hydro.TotalEnergy(s.Levels[0].State, s.Levels[0].Geom)
			for k := 0; k < 120; k++ {
				s.Advance()
			}
			e1 := hydro.TotalEnergy(s.Levels[0].State, s.Levels[0].Geom)
			d := e1 - e0
			if d < 0 {
				d = -d
			}
			drift[reflux] = d / e0
		}
		if drift[true] > drift[false] {
			b.Fatalf("reflux increased drift: %g vs %g", drift[true], drift[false])
		}
		if drift[false] < 1e-4 {
			b.Fatalf("no-reflux drift %g too small: boundary not exercised", drift[false])
		}
		b.ReportMetric(drift[false]*1e6, "drift-noreflux-ppm")
		b.ReportMetric(drift[true]*1e6, "drift-reflux-ppm")
	}
}

// --- end-to-end sanity ----------------------------------------------------

// BenchmarkPlotfileWrite measures the N-to-N writer itself (data path) on
// a realistic two-level hierarchy.
func BenchmarkPlotfileWrite(b *testing.B) {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{128, 128}
	cfg.MaxLevel = 1
	cfg.MaxStep = 0
	cfg.PlotInt = 1
	cfg.NProcs = 8
	cfg.MaxGridSize = 32
	s, err := sim.New(cfg, sim.DefaultOptions(), benchFS())
	if err != nil {
		b.Fatal(err)
	}
	spec := s.PlotSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := benchFS()
		recs, err := plotfile.Write(fs, spec)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(plotfile.TotalBytes(recs))
	}
}

// BenchmarkCampaignExecutor compares the serial loop against the
// worker-pool executor on a 12-case slice of the quick campaign and
// reports the parallel speedup (acceptance: > 1 at parallelism >= 4 on a
// multicore host). Ledger identity between the two runs is asserted every
// iteration.
func BenchmarkCampaignExecutor(b *testing.B) {
	cases := campaign.QuickCampaign()[:12]
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		serial, err := campaign.RunAll(cases, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		serialWall := time.Since(t0)

		t0 = time.Now()
		parallel, err := campaign.RunAll(cases, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		parallelWall := time.Since(t0)

		for c := range cases {
			if len(serial[c].Records) != len(parallel[c].Records) {
				b.Fatalf("%s: ledger diverged under parallel execution", cases[c].Name)
			}
			for j := range serial[c].Records {
				if serial[c].Records[j] != parallel[c].Records[j] {
					b.Fatalf("%s: record %d diverged under parallel execution", cases[c].Name, j)
				}
			}
		}
		speedup := serialWall.Seconds() / parallelWall.Seconds()
		// Campaign cases are CPU-bound, so wall-clock speedup needs real
		// cores; on single-core hosts the executor can only tie the
		// serial loop. Gate where the hardware can express the win.
		if runtime.NumCPU() >= 4 && speedup <= 1.1 {
			b.Fatalf("parallel executor speedup %.2fx on %d cores, want > 1.1x", speedup, runtime.NumCPU())
		}
		b.ReportMetric(serialWall.Seconds(), "serial-s")
		b.ReportMetric(parallelWall.Seconds(), "parallel-s")
		b.ReportMetric(speedup, "speedup-x")
	}
}

// BenchmarkDistribute sweeps the three distribution strategies over a
// 1024-box level onto 64 ranks — the per-regrid cost of every placement
// experiment — and over Table III case 46's level 0: 131072² split at
// max_grid_size 256 into 262,144 boxes onto 1024 ranks.
func BenchmarkDistribute(b *testing.B) {
	for _, shape := range []struct {
		name          string
		n, mgs, ranks int
		boxes         int
	}{
		{"1024box", 1024, 32, 64, 1024},
		{"case46", 131072, 256, 1024, 262144},
	} {
		dom := grid.NewBox(grid.IV(0, 0), grid.IV(shape.n-1, shape.n-1))
		ba := amr.SingleBoxArray(dom, shape.mgs, 8)
		if ba.Len() != shape.boxes {
			b.Fatalf("setup %s: %d boxes", shape.name, ba.Len())
		}
		for _, strat := range amr.DistStrategies() {
			b.Run(shape.name+"/"+strat.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dm, err := amr.Distribute(ba, shape.ranks, strat)
					if err != nil {
						b.Fatal(err)
					}
					if len(dm.Owner) != shape.boxes {
						b.Fatal("bad mapping")
					}
				}
			})
		}
	}
}

// BenchmarkHydroStep measures the solver's per-step cost on a 128^2 box.
func BenchmarkHydroStep(b *testing.B) {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{128, 128}
	cfg.MaxLevel = 0
	cfg.PlotInt = 0
	cfg.NProcs = 4
	cfg.MaxGridSize = 64
	s, err := sim.New(cfg, sim.DefaultOptions(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(cfg.NCell[0]) * int64(cfg.NCell[1]) * hydro.NCons * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance()
	}
}

// --- Campaign service layer (streaming consumers + memoized executor) ---

// sweepCase builds one case of the service-layer sweep benches: a small
// surrogate case, with the index folded into ComputeSeconds so every
// case carries a distinct fingerprint (the memoized benches need 1000
// distinct cache entries, not 1000 hits on one).
func sweepCase(i, maxStep int) campaign.Case {
	return campaign.Case{
		Name:           fmt.Sprintf("sweep-%04d", i),
		NCell:          512,
		MaxLevel:       1,
		MaxStep:        maxStep,
		PlotInt:        2,
		CFL:            0.5,
		NProcs:         32,
		Nodes:          8,
		Engine:         campaign.EngineSurrogate,
		ComputeSeconds: float64(i) * 1e-4,
	}
}

// liveHeap forces a collection and returns the live heap above base.
// Callers sample while the per-case state (ledger or fold) is still
// reachable, so the delta is the case's peak retained footprint.
func liveHeap(base uint64) uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc <= base {
		return 0
	}
	return m.HeapAlloc - base
}

// BenchmarkCampaignLedgerPeakHeap contrasts the two reduction modes of
// the streaming subsystem on a step-heavy case: retention materializes
// the full ledger and reduces it batch-style (O(writes) live heap),
// streaming attaches a CharacterizeFold and never holds the records
// (O(steps x ranks) aggregate state). The peak-heap-bytes metrics are
// the Design 10 memory claim; ledger-records sizes the retained side.
func BenchmarkCampaignLedgerPeakHeap(b *testing.B) {
	const maxStep = 240 // ~10k records: the ledger dominates the heap
	for _, mode := range []string{"retention", "streaming"} {
		b.Run(mode, func(b *testing.B) {
			runtime.GC()
			var base runtime.MemStats
			runtime.ReadMemStats(&base)
			var peak uint64
			var records int
			for i := 0; i < b.N; i++ {
				c := sweepCase(i, maxStep)
				cfg := c.FSConfig(false)
				cfg.JitterSigma = 0
				fs := iosim.New(cfg, "")
				var fold *iosim.CharacterizeFold
				if mode == "streaming" {
					fold = iosim.NewCharacterizeFold()
					fs.Attach(fold)
				}
				if _, err := campaign.Run(c, fs); err != nil {
					b.Fatal(err)
				}
				var ledger []iosim.WriteRecord
				var prof iosim.Characterization
				if mode == "streaming" {
					fs.FlushConsumers()
					prof = fold.Profile()
				} else {
					ledger = fs.Ledger()
					records = len(ledger)
					prof = iosim.Fold(ledger).Profile()
				}
				if prof.TotalBytes == 0 {
					b.Fatal("empty profile")
				}
				if d := liveHeap(base.HeapAlloc); d > peak {
					peak = d
				}
				runtime.KeepAlive(ledger)
				runtime.KeepAlive(fold)
				runtime.KeepAlive(fs)
			}
			b.ReportMetric(float64(peak), "peak-heap-bytes")
			if mode == "retention" {
				b.ReportMetric(float64(records), "ledger-records")
			}
		})
	}
}

// BenchmarkCampaignSweep1000 pushes 1000 distinct cases through the
// four service-layer execution modes and reports cases/sec: retention
// (materialize + batch reduce, the pre-service flow), streaming
// (attached fold, the serve flow for a cache miss), and the memoized
// executor cold (every case a miss) and warm (the same 1000 cases
// re-swept, every case a hit). warm/cold is the memoization claim.
func BenchmarkCampaignSweep1000(b *testing.B) {
	const sweep = 1000
	const maxStep = 24
	runMode := func(b *testing.B, runCase func(i int)) {
		b.Helper()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for j := 0; j < sweep; j++ {
				runCase(j)
			}
		}
		secs := time.Since(start).Seconds()
		if secs > 0 {
			b.ReportMetric(float64(b.N)*sweep/secs, "cases/sec")
		}
	}
	b.Run("retention", func(b *testing.B) {
		runMode(b, func(j int) {
			c := sweepCase(j, maxStep)
			fs := iosim.New(c.FSConfig(false), "")
			if _, err := campaign.Run(c, fs); err != nil {
				b.Fatal(err)
			}
			if prof := iosim.Fold(fs.Ledger()).Profile(); prof.TotalBytes == 0 {
				b.Fatal("empty profile")
			}
		})
	})
	b.Run("streaming", func(b *testing.B) {
		runMode(b, func(j int) {
			c := sweepCase(j, maxStep)
			fs := iosim.New(c.FSConfig(false), "")
			fold := iosim.NewCharacterizeFold()
			fs.Attach(fold)
			if _, err := campaign.Run(c, fs); err != nil {
				b.Fatal(err)
			}
			fs.FlushConsumers()
			if prof := fold.Profile(); prof.TotalBytes == 0 {
				b.Fatal("empty profile")
			}
		})
	})
	b.Run("memoized-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec := campaign.NewExecutor(1024, false)
			start := time.Now()
			for j := 0; j < sweep; j++ {
				if _, err := exec.RunCase(sweepCase(j, maxStep), 0); err != nil {
					b.Fatal(err)
				}
			}
			secs := time.Since(start).Seconds()
			if st := exec.Stats(); st.Misses != sweep {
				b.Fatalf("cold sweep: %d misses, want %d", st.Misses, sweep)
			}
			if secs > 0 {
				b.ReportMetric(sweep/secs, "cases/sec")
			}
		}
	})
	b.Run("memoized-warm", func(b *testing.B) {
		exec := campaign.NewExecutor(1024, false)
		for j := 0; j < sweep; j++ {
			if _, err := exec.RunCase(sweepCase(j, maxStep), 0); err != nil {
				b.Fatal(err)
			}
		}
		runMode(b, func(j int) {
			out, err := exec.RunCase(sweepCase(j, maxStep), 0)
			if err != nil {
				b.Fatal(err)
			}
			if !out.Cached {
				b.Fatalf("warm sweep: case %d missed the cache", j)
			}
		})
	})
}

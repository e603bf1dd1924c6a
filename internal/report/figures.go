package report

import (
	"fmt"
	"strings"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/core"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/stats"
)

// One renderer per paper exhibit. Each returns the terminal rendering;
// pair with Plot.CSV via the cmd tools for machine-readable output.

// TableI reproduces the paper's Table I: the Castro input parameters
// varied in the study.
func TableI() string {
	return "Table I: AMReX Castro input parameters varied (Sedov baseline)\n" +
		Table(
			[]string{"parameter", "description"},
			[][]string{
				{"amr.max_step", "maximum expected number of steps"},
				{"amr.n_cell", "number of cells at Level 0 in each direction"},
				{"amr.max_level", "maximum level of refinement allowed"},
				{"amr.plot_int", "frequency of plot outputs"},
				{"castro.cfl", "CFL condition"},
			})
}

// TableII reproduces the paper's Table II: the MACSio arguments used to
// model the Castro outputs.
func TableII() string {
	return "Table II: MACSio command line arguments used in the model\n" +
		Table(
			[]string{"argument", "description"},
			[][]string{
				{"interface", "output type: hdf5, json (miftmpl), silo"},
				{"parallel_file_mode", "file mode: multiple independent (MIF), single (SIF)"},
				{"num_dumps", "number of dumps to marshal"},
				{"part_size", "per-task mesh part size"},
				{"avg_num_parts", "average number of mesh parts per task"},
				{"vars_per_part", "number of mesh variables on each part"},
				{"compute_time", "rough time between dumps"},
				{"meta_size", "additional metadata size per task"},
				{"dataset_growth", "multiplier factor for data growth"},
			})
}

// TableIII summarizes a campaign's parameter ranges the way the paper's
// Table III does, plus per-case results when ledgers are supplied.
func TableIII(results []campaign.Result) string {
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Case.Name,
			fmt.Sprintf("%dx%d", r.Case.NCell, r.Case.NCell),
			fmt.Sprintf("%d", r.Case.MaxLevel),
			fmt.Sprintf("%d", r.Case.MaxStep),
			fmt.Sprintf("%d", r.Case.PlotInt),
			fmt.Sprintf("%.1f", r.Case.CFL),
			fmt.Sprintf("%d", r.Case.NProcs),
			string(r.Engine),
			fmt.Sprintf("%d", r.NPlots),
			HumanBytes(r.TotalBytes()),
		})
	}
	return "Table III: campaign runs (paper ranges: steps 40-1000, cells 32^2-131072^2,\n" +
		"levels 2-4, plot_int 1-20, cfl 0.3-0.6, nprocs 1-1024, nodes 1-512)\n" +
		Table([]string{"case", "n_cell", "maxlev", "steps", "plot_int", "cfl", "nprocs", "engine", "plots", "bytes"}, rows)
}

// PathLog is a LedgerConsumer that keeps the data-file paths of a write
// stream, the only part of a record the structural figures (Fig2, Fig3)
// read. The stream arrives burst by burst; the log keeps each rank's
// paths in program order and Paths lists them rank by rank, the order
// FileSystem.Ledger() gives.
type PathLog struct{ byRank [][]string }

// Consume logs a data record's path; directory records are skipped.
func (l *PathLog) Consume(r iosim.WriteRecord) {
	if r.Dir {
		return
	}
	for len(l.byRank) <= r.Rank {
		l.byRank = append(l.byRank, nil)
	}
	l.byRank[r.Rank] = append(l.byRank[r.Rank], r.Path)
}

// Flush implements LedgerConsumer; the log buffers nothing.
func (l *PathLog) Flush() {}

// Paths returns the logged paths: ascending rank, each rank's paths in
// program order.
func (l *PathLog) Paths() []string {
	var out []string
	for _, paths := range l.byRank {
		out = append(out, paths...)
	}
	return out
}

// Fig2 renders the plotfile directory tree from a run's data-file paths
// (PathLog.Paths), the paper's Fig. 2 structure.
func Fig2(paths []string) string {
	tree := map[string][]string{}
	var roots []string
	seenRoot := map[string]bool{}
	for _, path := range paths {
		parts := strings.SplitN(path, "/", 2)
		root := parts[0]
		if !seenRoot[root] {
			seenRoot[root] = true
			roots = append(roots, root)
		}
		if len(parts) > 1 {
			tree[root] = append(tree[root], parts[1])
		}
	}
	var sb strings.Builder
	sb.WriteString("Fig. 2: Castro plotfile analysis output structure\n")
	for _, root := range roots {
		fmt.Fprintf(&sb, "%s\n", root)
		for _, child := range tree[root] {
			fmt.Fprintf(&sb, "    %s\n", child)
		}
	}
	return sb.String()
}

// Fig5 plots cumulative output size against the Eq. (1) cumulative cell
// count for a set of campaign results (log-log, as in the paper).
func Fig5(results []campaign.Result) *Plot {
	p := NewPlot("Fig. 5: cumulative output size vs cumulative output cells (log-log)",
		"output_counter * ncells", "cumulative bytes")
	p.LogX, p.LogY = true, true
	for _, r := range results {
		ncells := int64(r.Case.NCell) * int64(r.Case.NCell)
		xs, ys := core.CumulativeXY(r.Records, ncells)
		p.Add(r.Case.Name, xs, ys)
	}
	return p
}

// Fig6 plots cumulative output against cumulative cells for the case4
// CFL / max_level pivot matrix.
func Fig6(results []campaign.Result) *Plot {
	p := NewPlot("Fig. 6: CFL and AMR level dependency of cumulative output (case4 pivot)",
		"cumulative output cells", "cumulative bytes")
	for _, r := range results {
		ncells := int64(r.Case.NCell) * int64(r.Case.NCell)
		xs, ys := core.CumulativeXY(r.Records, ncells)
		p.Add(fmt.Sprintf("cfl%.1f_maxl%d", r.Case.CFL, r.Case.MaxLevel), xs, ys)
	}
	return p
}

// Fig7 plots the per-level cumulative output decomposition of one run.
func Fig7(r campaign.Result) *Plot {
	p := NewPlot("Fig. 7: cumulative output per AMR level (pivot case)",
		"cumulative output cells", "cumulative bytes per level")
	ncells := int64(r.Case.NCell) * int64(r.Case.NCell)
	_, byLevel := core.PerLevelPerStep(r.Records)
	for _, level := range SortedIntKeys(byLevel) {
		series := byLevel[level]
		xs := make([]float64, len(series))
		ys := stats.CumSum(Int64s(series))
		for k := range xs {
			xs[k] = float64(k+1) * float64(ncells)
		}
		p.Add(fmt.Sprintf("L%d", level), xs, ys)
	}
	return p
}

// Fig8 plots per-task bytes at each output step for one level of a run
// (the paper's case27 view); it also reports the imbalance ratio.
func Fig8(r campaign.Result, level int) (*Plot, float64) {
	p := NewPlot(fmt.Sprintf("Fig. 8: per-task output at level %d (%s)", level, r.Case.Name),
		"taskID", "bytes per step")
	steps, byTask := core.PerTaskPerStep(r.Records, level, r.Case.NProcs)
	var lastStep []float64
	for k := range steps {
		xs := make([]float64, len(byTask))
		ys := make([]float64, len(byTask))
		for rank := range byTask {
			xs[rank] = float64(rank)
			ys[rank] = float64(byTask[rank][k])
		}
		p.Add(fmt.Sprintf("step%d", steps[k]), xs, ys)
		lastStep = ys
	}
	imbalance := stats.ImbalanceRatio(lastStep)
	return p, imbalance
}

// Fig9 plots the dataset_growth calibration convergence: each iteration's
// kernel curve against the measured series.
func Fig9(measured []int64, trace []core.CalibrationIter, base float64) *Plot {
	p := NewPlot("Fig. 9: MACSio dataset_growth calibration convergence",
		"output step", "bytes per step")
	xs := make([]float64, len(measured))
	ys := make([]float64, len(measured))
	for i, b := range measured {
		xs[i] = float64(i)
		ys[i] = float64(b)
	}
	p.Add("measured", xs, ys)
	// A few representative iterations plus the final one.
	pick := []int{0, len(trace) / 4, len(trace) / 2, len(trace) - 1}
	for _, idx := range pick {
		if idx < 0 || idx >= len(trace) {
			continue
		}
		m := core.KernelModel{Base: base, Growth: trace[idx].Growth}
		p.Add(fmt.Sprintf("iter%d g=%.6f", idx, trace[idx].Growth), xs, m.PredictSeries(len(measured)))
	}
	return p
}

// Fig10 compares measured per-step bytes against the calibrated MACSio
// kernel for each pivot variant; returns the plot and per-variant MAPE.
func Fig10(variants []campaign.Result, translations []core.Translation) (*Plot, []float64) {
	p := NewPlot("Fig. 10: measured Castro outputs vs MACSio model (case4 variants)",
		"output step", "bytes per step")
	var mapes []float64
	for i, r := range variants {
		_, perStep := core.PerStepBytes(r.Records)
		xs := make([]float64, len(perStep))
		meas := make([]float64, len(perStep))
		for k, b := range perStep {
			xs[k] = float64(k)
			meas[k] = float64(b)
		}
		name := fmt.Sprintf("cfl%.1f_maxl%d", r.Case.CFL, r.Case.MaxLevel)
		p.Add(name+"_measured", xs, meas)
		if i < len(translations) {
			pred := translations[i].Kernel.PredictSeries(len(perStep))
			p.Add(name+"_model", xs, pred)
			mapes = append(mapes, stats.MAPE(meas, pred))
		}
	}
	return p, mapes
}

// Fig11 compares a large-scale run's per-step output against the kernel
// model, the paper's Fig. 11.
func Fig11(r campaign.Result, model core.KernelModel) (*Plot, float64) {
	p := NewPlot(fmt.Sprintf("Fig. 11: large case %s vs MACSio kernel", r.Case.Name),
		"output step", "bytes per step")
	_, perStep := core.PerStepBytes(r.Records)
	xs := make([]float64, len(perStep))
	meas := make([]float64, len(perStep))
	for k, b := range perStep {
		xs[k] = float64(k)
		meas[k] = float64(b)
	}
	p.Add("measured", xs, meas)
	pred := model.PredictSeries(len(perStep))
	p.Add("kernel", xs, pred)
	return p, stats.MAPE(meas, pred)
}

// Fig3 renders the MACSio output layout from a run's data-file paths
// (PathLog.Paths), the paper's Fig. 3.
func Fig3(paths []string) string {
	var data, meta []string
	for _, path := range paths {
		if strings.Contains(path, "root") {
			meta = append(meta, path)
		} else {
			data = append(data, path)
		}
	}
	var sb strings.Builder
	sb.WriteString("Fig. 3: MACSio N-to-N output pattern (miftmpl)\n")
	sb.WriteString("  data\n")
	for _, p := range data {
		fmt.Fprintf(&sb, "    %s\n", p)
	}
	sb.WriteString("  metadata\n")
	for _, p := range meta {
		fmt.Fprintf(&sb, "    %s\n", p)
	}
	return sb.String()
}

// Listing1 renders the translated MACSio invocation, the paper's
// Listing 1.
func Listing1(tr core.Translation, nprocs int) string {
	return fmt.Sprintf("Listing 1: jsrun -n %d %s\n  (Eq.3 f = %.3f, dataset_growth = %.6f, fit MAPE = %.2f%%)\n",
		nprocs, tr.MACSio.CommandLine(), tr.F, tr.Kernel.Growth, tr.MAPE)
}

// BurstReport renders a run's burst timeline (CharacterizeFold.Bursts),
// the "dynamic" studies the paper motivates.
func BurstReport(bursts []iosim.BurstStat) string {
	var rows [][]string
	for _, s := range bursts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Step),
			HumanBytes(s.Bytes),
			fmt.Sprintf("%d", s.Files),
			fmt.Sprintf("%d", s.Participants),
			fmt.Sprintf("%.4gs", s.WallSeconds),
			HumanBytes(int64(s.EffectiveBW)) + "/s",
		})
	}
	return "I/O burst timeline\n" +
		Table([]string{"step", "bytes", "files", "writers", "wall", "eff-bw"}, rows)
}

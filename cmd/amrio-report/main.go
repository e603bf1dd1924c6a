// Command amrio-report is the paper command: it regenerates every table
// and figure in the paper's evaluation section, and runs the paper's
// methodology loop (its Fig. 1). Listing 1 prints the MACSio command a
// measured run translates into; Fig. 10 replays that same command
// through the MACSio proxy and compares the bytes each dump writes with
// the bytes each plot wrote; Fig. 9 shows the dataset_growth calibration
// converge.
//
// Without -results it executes the scaled pivot cases on the spot (about
// a minute) and renders everything end to end. -results names either a
// directory of saved campaign result JSONs or one result JSON: given one
// run, Listing 1 and Figs. 9 and 10 calibrate against that run instead
// of the pivot set.
//
// Usage:
//
//	amrio-report [-results results/ | -results results/case4.json] [-csv] [-exhibit fig10]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/core"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/report"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "amrio-report:", err)
		os.Exit(1)
	}
}

// exhibits are the names -exhibit accepts.
var exhibits = []string{"table1", "table2", "table3", "fig2", "fig3", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "fig11", "listing1"}

// run parses args and writes the selected exhibits to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("amrio-report", flag.ContinueOnError)
	resultsPath := flags.String("results", "", "directory of saved campaign result JSONs, or one result JSON to run the paper loop on")
	csv := flags.Bool("csv", false, "emit figure data as CSV instead of ASCII plots")
	exhibit := flags.String("exhibit", "", "render only the named exhibit ("+strings.Join(exhibits, ", ")+")")
	div := flags.Int("scale", 8, "scale divisor for on-the-fly runs")
	if err := flags.Parse(args); err != nil {
		return err
	}

	only := strings.ToLower(*exhibit)
	if only != "" && !slices.Contains(exhibits, only) {
		return fmt.Errorf("unknown -exhibit %q; valid names: %s", *exhibit, strings.Join(exhibits, ", "))
	}
	want := func(name string) bool {
		return only == "" || only == name
	}
	emit := func(p *report.Plot) {
		if *csv {
			fmt.Fprintln(stdout, p.CSV())
		} else {
			fmt.Fprintln(stdout, p.Render())
		}
	}

	// Load or generate the result set.
	var results []campaign.Result
	single := false
	if *resultsPath != "" {
		info, err := os.Stat(*resultsPath)
		if err != nil {
			return err
		}
		paths := []string{*resultsPath}
		if info.IsDir() {
			if paths, err = filepath.Glob(filepath.Join(*resultsPath, "*.json")); err != nil {
				return err
			}
		} else {
			single = true
		}
		for _, p := range paths {
			r, err := campaign.LoadResult(p)
			if err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			results = append(results, r)
		}
		if len(results) == 0 {
			return fmt.Errorf("no result JSONs in %s", *resultsPath)
		}
	}

	executor := campaign.NewExecutor(0, false)
	runCase := func(c campaign.Case) (campaign.Result, error) {
		for _, r := range results {
			if r.Case.Name == c.Name {
				return r, nil
			}
		}
		out, err := executor.RunCase(c, 0)
		return out.Result, err
	}

	if want("table1") {
		fmt.Fprintln(stdout, report.TableI())
	}
	if want("table2") {
		fmt.Fprintln(stdout, report.TableII())
	}

	// Fig. 2 / Fig. 3: structural exhibits from fresh small runs.
	if want("fig2") {
		fs, paths := iosim.New(iosim.DefaultConfig(), ""), new(report.PathLog)
		fs.Attach(paths)
		c := campaign.Case{Name: "fig2", NCell: 32, MaxLevel: 2, MaxStep: 4, PlotInt: 4,
			CFL: 0.5, NProcs: 4, Engine: campaign.EngineHydro}
		if _, err := campaign.Run(c, fs); err != nil {
			return err
		}
		fs.FlushConsumers()
		fmt.Fprintln(stdout, report.Fig2(paths.Paths()))
	}
	if want("fig3") {
		fs, paths := iosim.New(iosim.DefaultConfig(), ""), new(report.PathLog)
		fs.Attach(paths)
		mcfg := macsio.DefaultConfig()
		mcfg.NProcs = 4
		mcfg.NumDumps = 3
		if _, err := macsio.Run(fs, mcfg); err != nil {
			return err
		}
		fs.FlushConsumers()
		fmt.Fprintln(stdout, report.Fig3(paths.Paths()))
	}

	// Pivot runs used by several figures.
	var pivotResults []campaign.Result
	wantLoop := want("fig9") || want("fig10") || want("listing1")
	// Table III falls back to the pivot runs when no results were loaded.
	needPivot := want("fig6") || want("fig7") || (wantLoop && !single) ||
		(want("table3") && len(results) == 0)
	if needPivot {
		for _, v := range []struct {
			cfl float64
			ml  int
		}{{0.3, 2}, {0.3, 4}, {0.6, 2}, {0.6, 4}} {
			res, err := runCase(campaign.Case4Variant(v.cfl, v.ml).Scaled(*div))
			if err != nil {
				return err
			}
			pivotResults = append(pivotResults, res)
		}
	}
	// The paper loop (Listing 1, Figs. 9 and 10) runs on the one run
	// -results names, or else on the pivot set: Fig. 9 traces cfl 0.3
	// maxl 4 (any pivot works) and Listing 1 lists cfl 0.6 maxl 4.
	loop, traced, listed := pivotResults, 1, 3
	if single {
		loop, traced, listed = results, 0, 0
	}
	var replays []core.Replay
	if wantLoop {
		for _, res := range loop {
			rp, err := core.ReplayRun(res.Case.Inputs(), res.Records)
			if err != nil {
				return fmt.Errorf("%s: %w", res.Case.Name, err)
			}
			replays = append(replays, rp)
		}
	}

	if want("table3") {
		set := results
		if len(set) == 0 {
			set = pivotResults
		}
		fmt.Fprintln(stdout, report.TableIII(set))
	}
	if want("fig5") {
		set := results
		if len(set) == 0 {
			// A small sweep across sizes and level counts.
			for _, c := range []campaign.Case{
				{Name: "s32", NCell: 32, MaxLevel: 2, MaxStep: 60, PlotInt: 4, CFL: 0.5, NProcs: 2, Engine: campaign.EngineAuto},
				{Name: "s64", NCell: 64, MaxLevel: 2, MaxStep: 60, PlotInt: 4, CFL: 0.5, NProcs: 4, Engine: campaign.EngineAuto},
				{Name: "s64l3", NCell: 64, MaxLevel: 3, MaxStep: 60, PlotInt: 4, CFL: 0.5, NProcs: 4, Engine: campaign.EngineAuto},
				{Name: "s1024", NCell: 1024, MaxLevel: 2, MaxStep: 60, PlotInt: 4, CFL: 0.5, NProcs: 16, Engine: campaign.EngineAuto},
			} {
				res, err := runCase(c)
				if err != nil {
					return err
				}
				set = append(set, res)
			}
		}
		emit(report.Fig5(set))
	}
	if want("fig6") {
		emit(report.Fig6(pivotResults))
	}
	if want("fig7") {
		emit(report.Fig7(pivotResults[3])) // cfl 0.6, maxl 4: richest hierarchy
	}
	if want("fig8") {
		res, err := runCase(campaign.Case27().Scaled(*div / 2))
		if err != nil {
			return err
		}
		for level := 0; level <= 1; level++ {
			p, imbalance := report.Fig8(res, level)
			emit(p)
			fmt.Fprintf(stdout, "level %d per-task imbalance (max/mean): %.2f\n\n", level, imbalance)
		}
	}
	if want("fig9") {
		tr := replays[traced].Translation
		emit(report.Fig9(replays[traced].Measured, tr.Trace, tr.Kernel.Base))
	}
	if want("fig10") {
		emit(report.Fig10(loop, replays))
		for i, rp := range replays {
			fmt.Fprintf(stdout, "%s kernel MAPE %.2f%%; proxy fidelity: MAPE %.2f%%  Pearson %.4f\n",
				loop[i].Case.Name, rp.Translation.MAPE, rp.MAPE, rp.Pearson)
		}
		fmt.Fprintln(stdout)
	}
	if want("fig11") {
		res, err := runCase(campaign.LargeCase())
		if err != nil {
			return err
		}
		tr, err := core.Translate(res.Case.Inputs(), res.Records, core.DefaultTranslateOptions())
		if err != nil {
			return err
		}
		p, mape := report.Fig11(res, tr.Kernel)
		emit(p)
		fmt.Fprintf(stdout, "large-case kernel MAPE: %.2f%%\n\n", mape)
	}
	if want("listing1") {
		fmt.Fprintln(stdout, report.Listing1(loop[listed], replays[listed]))
	}
	return nil
}

// Command amrio-model runs the paper's methodology loop (its Fig. 1) on
// one measured run — a result JSON from amrio-campaign, or a fresh quick
// run of the pivot case. It calibrates the Eq. 3 part_size factor and
// the dataset_growth kernel against the run and emits the translated
// MACSio command line (Listing 1); then it runs the MACSio proxy and
// compares the bytes each dump writes with the bytes each plot wrote
// (the Fig. 10 procedure); last comes the Fig. 9 calibration
// convergence.
//
// Usage:
//
//	amrio-model [-result results/case4.json] [-csv]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/core"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/report"
	"amrproxyio/internal/stats"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "amrio-model:", err)
		os.Exit(1)
	}
}

// run parses args and writes the methodology loop's report to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("amrio-model", flag.ContinueOnError)
	resultPath := flags.String("result", "", "measured run JSON (default: run a quick case4 now)")
	csv := flags.Bool("csv", false, "emit the Fig. 9 series as CSV")
	if err := flags.Parse(args); err != nil {
		return err
	}

	var res campaign.Result
	if *resultPath != "" {
		var err error
		res, err = campaign.LoadResult(*resultPath)
		if err != nil {
			return err
		}
	} else {
		fmt.Fprintln(stdout, "no -result given; running a scaled case4 pivot now...")
		out, err := campaign.NewExecutor(0, false).RunCase(campaign.Case4().Scaled(8), 0)
		if err != nil {
			return err
		}
		res = out.Result
	}

	cfg := res.Case.Inputs()
	tr, err := core.Translate(cfg, res.Records, core.DefaultTranslateOptions())
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "measured run: %s (%s engine, %d plot events, %s total)\n",
		res.Case.Name, res.Engine, res.NPlots, report.HumanBytes(res.TotalBytes()))
	fmt.Fprintf(stdout, "Eq. 3 fit: f = %.3f -> part_size = %d bytes\n", tr.F, tr.MACSio.PartSize)
	fmt.Fprintf(stdout, "calibrated dataset_growth = %.6f (MAPE %.2f%%, Pearson %.4f)\n",
		tr.Kernel.Growth, tr.MAPE, tr.Pearson)
	fmt.Fprintf(stdout, "growth guess from cfl/levels table: %.4f\n",
		core.GrowthGuess(cfg.CFL, cfg.MaxLevel))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, report.Listing1(tr, cfg.NProcs))

	_, perStep := core.PerStepBytes(res.Records)
	if err := replay(stdout, cfg, res, perStep); err != nil {
		return err
	}

	fig9 := report.Fig9(perStep, tr.Trace, tr.Kernel.Base)
	if *csv {
		fmt.Fprintln(stdout, fig9.CSV())
	} else {
		fmt.Fprintln(stdout, fig9.Render())
	}
	return nil
}

// replay runs the MACSio proxy for the measured run and compares it
// with the run step by step. Eq. 3 is fitted against on-disk bytes here
// (core.MatchFileBytes divides out MACSio's JSON textual inflation), so
// the proxy's files match the run's in aggregate; the paper's own
// f ≈ 23-25 above uses the nominal part_size semantics instead.
func replay(stdout io.Writer, cfg inputs.CastroInputs, res campaign.Result, measured []int64) error {
	opts := core.DefaultTranslateOptions()
	opts.Match = core.MatchFileBytes
	tr, err := core.Translate(cfg, res.Records, opts)
	if err != nil {
		return err
	}
	recs, err := macsio.Run(iosim.New(iosim.DefaultConfig(), ""), tr.MACSio)
	if err != nil {
		return err
	}
	proxy := macsio.BytesPerStep(recs)
	fmt.Fprintf(stdout, "proxy replay (f = %.2f fitted to file bytes, part_size = %d), AMReX measured vs MACSio proxy:\n",
		tr.F, tr.MACSio.PartSize)
	var meas, prox []float64
	for k := 0; k < len(measured) && k < len(proxy); k++ {
		meas = append(meas, float64(measured[k]))
		prox = append(prox, float64(proxy[k]))
		fmt.Fprintf(stdout, "  step %2d  castro %10s   macsio %10s   ratio %.3f\n",
			k, report.HumanBytes(measured[k]), report.HumanBytes(proxy[k]),
			float64(proxy[k])/float64(measured[k]))
	}
	fmt.Fprintf(stdout, "proxy fidelity: MAPE %.2f%%  Pearson %.4f\n\n",
		stats.MAPE(meas, prox), stats.Pearson(meas, prox))
	return nil
}

// Command castro-sedov runs the AMR Sedov blast-wave simulation from an
// AMReX-style inputs file (the paper's Listing 2 format), writes plotfiles
// in the N-to-N pattern, and reports the per-(step, level, task) output
// ledger the paper's methodology measures.
//
// Usage:
//
//	castro-sedov -inputs inputs.2d [-outdir DIR] [-dist knapsack] [-v]
//
// Without -outdir the filesystem model runs in size-only accounting mode
// (no bytes touch the disk); with it, real plotfiles are produced that the
// plotfile reader (and external tools) can parse.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/report"
	"amrproxyio/internal/sim"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "castro-sedov:", err)
		os.Exit(1)
	}
}

// run parses args, runs the simulation, and writes its reports to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("castro-sedov", flag.ContinueOnError)
	inputsPath := flags.String("inputs", "", "AMReX-style inputs file (default: Listing 2 baseline)")
	outdir := flags.String("outdir", "", "write real plotfiles under this directory")
	dist := flags.String("dist", "knapsack", "distribution mapping: roundrobin|knapsack|sfc")
	nprocs := flags.Int("nprocs", 0, "override number of simulated MPI tasks")
	verbose := flags.Bool("v", false, "print the plotfile tree and burst report")
	if err := flags.Parse(args); err != nil {
		return err
	}
	opts := sim.DefaultOptions()
	var err error
	if opts.Dist, err = amr.ParseDistStrategy(*dist); err != nil {
		return err
	}

	cfg := inputs.DefaultCastroInputs()
	if *inputsPath != "" {
		if cfg, err = inputs.LoadCastro(*inputsPath); err != nil {
			return err
		}
	}
	if *nprocs > 0 {
		cfg.NProcs = *nprocs
	}

	fsCfg := iosim.DefaultConfig()
	if *outdir != "" {
		fsCfg.Backend = iosim.RealDisk
	}
	// Only -v reads the write ledger; without it each burst's records
	// are dropped as the burst ends.
	if !*verbose {
		fsCfg.RetainLedger = iosim.RetainNone
	}
	fs := iosim.New(fsCfg, *outdir)

	s, err := sim.New(cfg, opts, fs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "castro-sedov: %dx%d cells, max_level %d, %d tasks, cfl %.2f, plot_int %d\n",
		cfg.NCell[0], cfg.NCell[1], cfg.MaxLevel, cfg.NProcs, cfg.CFL, cfg.PlotInt)
	if err := s.Run(context.Background()); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "completed: %d steps, t = %.6g, %d plotfiles, finest level %d\n",
		s.Step, s.Time, s.NPlots(), s.FinestLevel())

	recs := s.Records()
	perStep := map[int]int64{}
	perLevel := map[int]int64{}
	for _, r := range recs {
		perStep[r.Step] += r.Bytes
		perLevel[r.Level] += r.Bytes
	}
	fmt.Fprintln(stdout, "\nbytes per plot step:")
	for _, step := range report.SortedIntKeys(perStep) {
		fmt.Fprintf(stdout, "  step %6d  %s\n", step, report.HumanBytes(perStep[step]))
	}
	fmt.Fprintln(stdout, "bytes per level:")
	for _, l := range report.SortedIntKeys(perLevel) {
		fmt.Fprintf(stdout, "  L%d  %s\n", l, report.HumanBytes(perLevel[l]))
	}
	fmt.Fprintf(stdout, "total: %s in %d records\n", report.HumanBytes(fs.TotalBytes()), len(recs))

	if *verbose {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, report.Fig2(fs.Ledger()))
		fmt.Fprintln(stdout, report.BurstReport(fs.Ledger()))
		fmt.Fprintln(stdout, iosim.Characterize(fs.Ledger()).Render())
	}
	return nil
}

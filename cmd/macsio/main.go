// Command macsio is the proxy I/O application with the paper's Table II
// command line. It reproduces the Fig. 3 N-to-N output pattern through the
// filesystem model (or onto real disk with -outdir).
//
// Example (the paper's Listing 1 shape):
//
//	macsio --interface miftmpl --parallel_file_mode MIF 32 \
//	       --num_dumps 21 --part_size 1550000 --avg_num_parts 1 \
//	       --vars_per_part 1 --dataset_growth 1.013075 --nprocs 32
//
// -nodes/-targets enable the per-link topology model; -storage selects
// the storage-tier stack ("gpfs" | "bb" | "bb+gpfs") — with the
// burst-buffer stacks, --compute_time is the gap the asynchronous NVMe
// drain overlaps, and -v's characterization reports per-tier bytes,
// buffer fill, and stall stragglers. -aggregation turns the N-to-N dump
// into a two-phase collective (iosim spec grammar: "all" | "K/node",
// with "+sif" and "+async" options): node peers gather onto aggregator
// ranks, which are the only ranks that open files — -v's
// characterization then shows the reduced fan-in and the gather/open
// split. -faults installs a deterministic
// fault-injection plan (inline JSON or a path; see internal/faults);
// -v then also renders the run's resilience summary. -mitigate enables
// the closed-loop resilience engine ("default"/"on", inline policy JSON,
// or a path; see internal/resilience) — MACSio's dumps are checkpoints
// with a fixed count, so the engine's seam here is target quarantine:
// between dumps it trips circuit breakers on storming targets and routes
// the next dump's writes to failover targets instead of retrying into
// the outage. -v then also prints the mitigation summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/report"
	"amrproxyio/internal/resilience"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "macsio:", err)
		os.Exit(1)
	}
}

func run() error {
	// Split our own flags (before "--") from MACSio flags.
	var outdir, storage, aggregation, faultsArg, mitigateArg string
	var verbose bool
	var nodes, targets int
	fl := flag.NewFlagSet("macsio", flag.ContinueOnError)
	fl.StringVar(&outdir, "outdir", "", "write real files under this directory")
	fl.BoolVar(&verbose, "v", false, "print the output layout and burst report")

	args := os.Args[1:]
	var macsioArgs []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-outdir", "--outdir":
			if i+1 < len(args) {
				outdir = args[i+1]
				i++
			}
		case "-storage", "--storage":
			if i+1 < len(args) {
				storage = args[i+1]
				i++
			}
		case "-aggregation", "--aggregation":
			if i+1 < len(args) {
				aggregation = args[i+1]
				i++
			}
		case "-faults", "--faults":
			if i+1 < len(args) {
				faultsArg = args[i+1]
				i++
			}
		case "-mitigate", "--mitigate":
			if i+1 < len(args) {
				mitigateArg = args[i+1]
				i++
			}
		case "-nodes", "--nodes":
			if i+1 < len(args) {
				n, err := strconv.Atoi(args[i+1])
				if err != nil {
					return fmt.Errorf("-nodes %q: %w", args[i+1], err)
				}
				nodes = n
				i++
			}
		case "-targets", "--targets":
			if i+1 < len(args) {
				n, err := strconv.Atoi(args[i+1])
				if err != nil {
					return fmt.Errorf("-targets %q: %w", args[i+1], err)
				}
				targets = n
				i++
			}
		case "-v":
			verbose = true
		default:
			macsioArgs = append(macsioArgs, args[i])
		}
	}
	_ = fl

	cfg, err := macsio.ParseArgs(macsioArgs)
	if err != nil {
		return err
	}

	fsCfg := iosim.DefaultConfig()
	if outdir != "" {
		fsCfg.Backend = iosim.RealDisk
	}
	// -nodes N packs the ranks onto N Summit-like nodes and switches the
	// burst model to per-link contention (NIC caps + NSD fan-in);
	// -targets overrides the Alpine NSD server count.
	if targets > 0 && nodes <= 0 {
		return fmt.Errorf("-targets requires -nodes (the topology model needs a rank placement)")
	}
	if nodes > 0 {
		topo := iosim.TopologyForCase(nodes, cfg.NProcs)
		if targets > 0 {
			topo.Targets = targets
		}
		fsCfg.Topology = topo
	}
	// -storage selects the tier stack ("gpfs" | "bb" | "bb+gpfs"): the
	// burst-buffer models partition each node's Summit NVMe across its
	// ranks and drain asynchronously between dumps (--compute_time makes
	// the drain-compute overlap visible). Without -nodes every rank
	// shares one node's partition.
	if storage != "" {
		name, err := iosim.ParseStorage(storage)
		if err != nil {
			return err
		}
		fsCfg.Storage = name
		bbNodes := nodes
		if bbNodes <= 0 {
			bbNodes = 1
		}
		fsCfg.BurstBuffer = iosim.DefaultBurstBuffer(bbNodes)
	}
	// -aggregation prices the dumps as a two-phase collective; unknown
	// specs and degenerate aggregator counts are rejected here, before
	// any dump runs.
	if aggregation != "" {
		spec, err := iosim.ParseAggregation(aggregation)
		if err != nil {
			return err
		}
		fsCfg.Aggregation = spec
	}
	// -faults schedules deterministic fault injection against simulated
	// time; malformed plans and unknown fault kinds are rejected here,
	// before any dump runs.
	plan, err := faults.Load(faultsArg)
	if err != nil {
		return err
	}
	if inj := plan.Injector(fsCfg.Topology); inj != nil {
		fsCfg.Faults = inj
	}
	// -mitigate turns the injected faults from a passive stress into a
	// closed loop: the policy is validated here (unknown fields exit
	// non-zero before any dump runs), and the engine attaches only when
	// there is an injector to mitigate against.
	policy, err := resilience.Load(mitigateArg)
	if err != nil {
		return err
	}
	fs := iosim.New(fsCfg, outdir)
	eng := resilience.ForFileSystem(policy, fs, cfg.NProcs)

	fmt.Printf("macsio: %s\n", cfg.CommandLine())
	recs, err := macsio.RunMitigated(fs, cfg, eng)
	if err != nil {
		return err
	}
	per := macsio.BytesPerStep(recs)
	fmt.Println("bytes per dump step:")
	for _, step := range report.SortedIntKeys(per) {
		fmt.Printf("  dump %3d  %s\n", step, report.HumanBytes(per[step]))
	}
	fmt.Printf("total: %s across %d dump records\n",
		report.HumanBytes(macsio.TotalBytes(recs)), len(recs))

	if verbose {
		ledger := fs.Ledger()
		fold := iosim.Fold(ledger)
		fmt.Println()
		fmt.Println(report.Fig3(ledger))
		fmt.Println(report.BurstReport(ledger))
		if nodes > 0 {
			fmt.Println(report.TopologyReport(fold))
		}
		fmt.Println(fold.Profile().Render())
		if plan != nil {
			sum := report.ResilienceSummary{
				Name:       "macsio",
				Resilience: faults.Analyze(plan, fold, fs.FaultEvents()),
			}
			fmt.Printf("resilience under injected faults:\n%s",
				report.ResilienceReport([]report.ResilienceSummary{sum}))
		}
		if eng != nil {
			out := resilience.Evaluate("macsio", plan, fold, fs.FaultEvents(), eng.Stats())
			fmt.Printf("mitigation summary:\n%s",
				report.MitigationTable([]report.MitigationSummary{{Name: "macsio", Outcome: out}}))
		}
	}
	return nil
}

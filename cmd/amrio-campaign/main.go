// Command amrio-campaign executes the paper's Table III parameter study
// and persists each run's output ledger to JSON for the model and report
// tools. Every case runs on an uncached campaign.Executor and is reduced
// to its report rows as it completes, from the run's one fold; no write
// ledger is kept.
//
// Usage:
//
//	amrio-campaign [-quick] [-filter case4] [-outdir results/] [-parallel N]
//	               [-topology] [-dist roundrobin,knapsack,sfc] [-remap]
//	               [-storage gpfs,bb,bb+gpfs] [-bbcap bytes]
//	               [-aggregation direct,2/node,1/node+sif+async]
//	               [-faults plan.json | -faults '{"events":[...]}']
//	               [-mitigate default | policy.json | '{"quarantine":true}']
//
// -quick (default) runs the campaign scaled for minutes-scale execution;
// -quick=false runs paper-scale cases (hours; Summit-scale cases still use
// the metadata-only surrogate and remain fast). Cases are independent —
// each owns a private simulated filesystem — so the sweep runs on a
// worker pool: -parallel N caps the workers (default: all cores; 1
// reproduces the serial executor). Ledgers and results are identical at
// any parallelism; only wall-clock changes.
//
// -topology switches the filesystem model from one aggregate bandwidth
// pool to the per-link contention model: each case's ranks are packed
// onto its Summit node count, per-node NIC caps and Alpine NSD fan-in
// apply, and the per-case output gains a link-skew summary (plus a full
// per-node report when a -filter narrows the sweep to a few cases).
//
// -dist expands every selected case into the distribution-mapping
// cross-product (one run per named strategy) and, after the sweep,
// prints a DistReport comparing burst skew, stragglers, and per-target
// fan-in across strategies. -remap additionally turns on the
// inter-burst layout reorganization (amr.RemapToTargets): before every
// dump the rank→storage-target placement is rebalanced to the
// hierarchy's per-rank load (effective with -topology, which models the
// targets being rebalanced).
//
// -storage expands every selected case into the storage-tier
// cross-product ("gpfs" single-tier, "bb" node-local burst buffer,
// "bb+gpfs" tiered) and prints a StorageReport comparing burst walls,
// per-tier byte splits, buffer occupancy, drain tails, and stall
// stragglers. -bbcap overrides the per-node burst-buffer capacity
// in bytes (default: Summit's 1.6 TB NVMe) — shrink it to watch bursts
// fill the buffer and stall at the drain rate. It sets every case's
// bb_capacity field (campaign.Case.BBCapacity, the same field a -serve
// client submits), so 0 keeps the default and a negative or non-finite
// value is rejected before any case runs.
//
// -aggregation expands every selected case into the two-phase
// aggregation cross-product (iosim.AggregationSpec grammar:
// "all" | "K/node", with "+sif" and "+async" options; the reserved word
// "direct" is the no-aggregation baseline) and prints an
// AggregationReport comparing fan-in (ranks → writers), the
// gather/open/write duration split, and the wall-time crossover across
// layouts. Unknown specs are rejected before any case runs.
//
// The sweep flags compose: each is one axis of a single cross-product
// (-dist, then -storage, then -aggregation, then the -mitigate pair),
// members named "<case>_<dist>_<storage>_<layout>_<mitigate>". The
// reports print one comparison per swept axis per combination of the
// other axes, titled by the base case plus those axes' variant names:
// -dist a,b -storage x,y prints a storage table per strategy and a
// distribution-mapping table per storage stack.
//
// -faults installs a deterministic fault-injection plan (inline JSON or
// a path to a JSON file; see internal/faults) on every selected case:
// storage-target outages, per-node NIC degradation, burst-buffer
// partition loss, and MTBF-driven rank interrupts. After the sweep the
// per-case recovery model is rendered as a ResilienceReport (lost work,
// restart reads, retries, failovers, forward-progress rate). Unknown
// fault kinds and malformed plans are rejected before any case runs.
// Runnable example plans live in examples/faultplans/.
//
// -mitigate expands every selected case into an unmitigated/mitigated
// pair under the closed-loop resilience policy engine
// (internal/resilience): adaptive Young/Daly checkpoint cadence, target
// quarantine with immediate failover, and degraded-mode output under
// fault pressure. "default" (or "on") enables all three policies;
// inline JSON or a policy file tunes them. After the sweep the
// MitigationReport renders the side-by-side outcome with per-pair
// forward-progress deltas. Meaningful with -faults (without a fault
// plan there is nothing to mitigate and the pair is identical); unknown
// policy fields are rejected before any case runs.
//
// -serve addr switches from the one-shot sweep to the campaign service
// (internal/serve): an HTTP server on addr accepting JSON case batches
// on POST /run and streaming per-case report JSON back as NDJSON as
// each case completes, with /healthz and /statz endpoints. Cases run
// through the memoizing executor — repeated configurations are served
// from an LRU cache keyed by canonical case fingerprint — on the usual
// worker pool (-parallel), optionally bounded per case (-case-timeout)
// and against the per-link model (-topology). SIGTERM/SIGINT drain
// in-flight batches before exit. The sweep-shaping flags (-quick,
// -dist, -storage, ...) do not apply in serve mode; clients submit
// fully-formed cases.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/faults"
	"amrproxyio/internal/report"
	"amrproxyio/internal/resilience"
	"amrproxyio/internal/serve"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "amrio-campaign:", err)
		os.Exit(1)
	}
}

// run parses args and runs the sweep (or the service), writing every
// report to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("amrio-campaign", flag.ContinueOnError)
	quick := flags.Bool("quick", true, "run the scaled-down campaign")
	filter := flags.String("filter", "", "only run cases whose name contains this substring")
	outdir := flags.String("outdir", "", "save per-case result JSONs here")
	parallel := flags.Int("parallel", 0, "worker-pool size (0 = all cores, 1 = serial)")
	topology := flags.Bool("topology", false,
		"model per-link contention (node NIC caps + NSD fan-in) instead of one aggregate pool")
	dist := flags.String("dist", "",
		"comma-separated distribution-mapping strategies to sweep (roundrobin,knapsack,sfc); expands every case")
	remap := flags.Bool("remap", false,
		"reorganize the rank->target layout between bursts (amr.RemapToTargets; effective with -topology)")
	storage := flags.String("storage", "",
		"comma-separated storage-tier stacks to sweep (gpfs,bb,bb+gpfs); expands every case")
	bbcap := flags.Float64("bbcap", 0,
		"per-node burst-buffer capacity in bytes for bb/bb+gpfs sweeps (0 = Summit's 1.6e12)")
	aggregation := flags.String("aggregation", "",
		"comma-separated aggregation specs to sweep (direct,all,K/node with +sif/+async options); expands every case")
	faultsArg := flags.String("faults", "",
		"fault-injection plan for every case: inline JSON or a path to a JSON file (see internal/faults)")
	mitigateArg := flags.String("mitigate", "",
		"mitigation policy sweep: 'default' enables all policies, or inline JSON / a path to a JSON policy file (see internal/resilience)")
	serveAddr := flags.String("serve", "",
		"serve mode: listen on this address (e.g. :8080) for JSON case batches instead of running a sweep")
	caseTimeout := flags.Duration("case-timeout", 0,
		"serve mode: per-case wall-clock bound (0 = unbounded)")
	cacheSize := flags.Int("cache", 0,
		"serve mode: memoization LRU capacity (0 = default)")
	if err := flags.Parse(args); err != nil {
		return err
	}

	if *serveAddr != "" {
		return runServe(*serveAddr, serve.Options{
			Parallel:    *parallel,
			CaseTimeout: *caseTimeout,
			CacheSize:   *cacheSize,
			Topology:    *topology,
		})
	}

	plan, err := faults.Load(*faultsArg)
	if err != nil {
		return err
	}
	policy, err := resilience.Load(*mitigateArg)
	if err != nil {
		return err
	}

	all := campaign.PaperCampaign()
	if *quick {
		all = campaign.QuickCampaign()
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}

	var bases []campaign.Case
	for _, c := range all {
		if *filter == "" || strings.Contains(c.Name, *filter) {
			c.Remap = *remap
			c.BBCapacity = *bbcap
			c.Faults = plan
			bases = append(bases, c)
		}
	}

	// The sweep: one axis per sweep flag, in flag order, with the
	// mitigation pair innermost so each member's unmitigated and mitigated
	// runs share every other setting and the fault plan.
	var axes []campaign.Axis
	for _, f := range []struct{ axis, list string }{
		{"dist", *dist}, {"storage", *storage}, {"aggregation", *aggregation},
	} {
		if f.list == "" {
			continue
		}
		ax, err := campaign.ParseAxis(f.axis, f.list)
		if err != nil {
			return err
		}
		axes = append(axes, ax)
	}
	if policy != nil {
		axes = append(axes, campaign.Axis{Name: "mitigate", Variants: []campaign.Variant{
			{Name: "nomitigate", Apply: func(c *campaign.Case) { c.Mitigate = nil }},
			{Name: "mitigate", Apply: func(c *campaign.Case) { c.Mitigate = policy }},
		}})
	}
	cases := campaign.Cross(bases, axes...)
	for _, c := range cases {
		if err := c.Validate(); err != nil {
			return err
		}
	}

	// Every case runs on an uncached executor and is reduced to its report
	// rows in the per-case hook, as it completes: no ledger, filesystem or
	// fold outlives its case.
	reports := make([]caseReport, len(cases))
	results, err := campaign.RunAll(cases, *parallel, campaign.NewExecutor(0, *topology),
		campaign.WithOutputs(func(i int, out campaign.CaseOutput, red *campaign.Reduction, err error) {
			if err != nil {
				return
			}
			c, fold, r := cases[i], red.Fold, &reports[i]
			if *topology {
				r.link = "  [" + report.LinkSummary(fold.Bursts()) + "]"
				// A narrowed sweep gets the full per-node decomposition too.
				if len(cases) <= 4 {
					r.topology = fmt.Sprintf("%s:\n%s", c.Name, report.TopologyReport(fold))
				}
			}
			r.dist = report.SummarizeDist("", fold)
			r.storage = report.SummarizeStorage("", fold)
			r.aggregation = report.SummarizeAggregation("", fold)
			if plan != nil {
				r.resilience = faults.Analyze(plan, fold, red.Faults)
			}
			if policy != nil {
				r.mitigation = report.MitigationSummary{Name: c.Name,
					Outcome: resilience.Evaluate(c.Name, c.Faults, fold, red.Faults, out.Result.Mitigation)}
			}
		}))
	if err != nil {
		return err
	}
	var resilSums []report.ResilienceSummary
	for i, res := range results {
		c := cases[i]
		fmt.Fprintf(stdout, "%-18s %-9s %9s in %8v (%d plots)%s\n",
			c.Name, res.Engine, report.HumanBytes(res.TotalBytes()), res.Wall.Round(1e6), res.NPlots, reports[i].link)
		if plan != nil {
			resilSums = append(resilSums, report.ResilienceSummary{Name: c.Name, Resilience: reports[i].resilience})
		}
		if *outdir != "" {
			if err := res.Save(filepath.Join(*outdir, c.Name+".json")); err != nil {
				return err
			}
		}
	}
	for _, r := range reports {
		if r.topology != "" {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, r.topology)
		}
	}
	// One comparison per swept axis per combination of the other axes:
	// the group's members differ only along the axis, and the group is
	// labelled by its base case plus the other axes' variant names. The
	// mitigation groups are the unmitigated/mitigated pairs of one table.
	var pairs []report.MitigationPair
	for k, ax := range axes {
		others := append(append([]campaign.Axis{}, axes[:k]...), axes[k+1:]...)
		labels := campaign.Cross(bases, others...)
		for g, members := range campaign.Groups(len(bases), axes, k) {
			if ax.Name == "mitigate" {
				pairs = append(pairs, report.MitigationPair{Base: labels[g].Name,
					Unmitigated: reports[members[0]].mitigation, Mitigated: reports[members[1]].mitigation})
				continue
			}
			cmp := comparisons[ax.Name]
			names := make([]string, len(members))
			group := make([]caseReport, len(members))
			for v, m := range members {
				names[v], group[v] = ax.Variants[v].Name, reports[m]
			}
			fmt.Fprintf(stdout, "\n%s %s:\n%s", labels[g].Name, cmp.title, cmp.table(names, group))
		}
	}
	// The recovery-cost comparison: what the injected plan cost each
	// case in lost work, restart reads, and degraded forward progress.
	if len(resilSums) > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "resilience under injected faults:\n%s", report.ResilienceReport(resilSums))
	}
	// The mitigation comparison, with the forward-progress delta line the
	// CI gate checks.
	if len(pairs) > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "mitigation comparison:\n%s", report.MitigationReport(pairs))
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, report.TableIII(results))
	return nil
}

// caseReport is one case reduced to everything the sweep prints about
// it, computed from the case's fold as the case completes. The
// comparison rows are unnamed until a group names them for its variants.
type caseReport struct {
	link, topology string
	dist           report.DistSummary
	storage        report.StorageSummary
	aggregation    report.AggregationSummary
	resilience     faults.Resilience
	mitigation     report.MitigationSummary
}

// comparison is one swept axis's table: its title and its renderer over
// a group's variant names and member reports.
type comparison struct {
	title string
	table func(names []string, group []caseReport) string
}

var comparisons = map[string]comparison{
	"dist": {"distribution-mapping comparison", table(func(r caseReport, v string) report.DistSummary {
		r.dist.Dist = v
		return r.dist
	}, report.DistReport)},
	"storage": {"storage-tier comparison", table(func(r caseReport, v string) report.StorageSummary {
		r.storage.Storage = v
		return r.storage
	}, report.StorageReport)},
	"aggregation": {"aggregation comparison", table(func(r caseReport, v string) report.AggregationSummary {
		r.aggregation.Name = v
		return r.aggregation
	}, report.AggregationReport)},
}

// table names each member's row for its variant and renders the rows.
func table[S any](row func(caseReport, string) S, render func([]S) string) func([]string, []caseReport) string {
	return func(names []string, group []caseReport) string {
		rows := make([]S, len(group))
		for i, r := range group {
			rows[i] = row(r, names[i])
		}
		return render(rows)
	}
}

// runServe runs the campaign service until SIGTERM/SIGINT, then drains:
// the HTTP server stops accepting new batches and in-flight batches
// finish streaming (bounded by a shutdown deadline) before the process
// exits.
func runServe(addr string, opts serve.Options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := serve.New(opts)
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "amrio-campaign: serving on %s\n", addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting on the drain
	fmt.Fprintln(os.Stderr, "amrio-campaign: draining in-flight batches")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	st := s.Stats()
	fmt.Fprintf(os.Stderr, "amrio-campaign: drained (%d cases served, %.0f%% cache hits)\n",
		st.CasesCompleted, 100*st.HitRate)
	return nil
}

// Scalingstudy reproduces the paper's large-scale story (Fig. 11 and the
// top rows of Table III): Summit-class meshes — up to 131072x131072, ~17
// billion cells on 1024 ranks — run through the surrogate pipeline, where
// the same meshing and N-to-N plotfile machinery executes in metadata-only
// mode. It prints the modeled output volume, per-step burst behavior on
// the Summit-like filesystem model, and the kernel-model comparison.
//
// Each scale runs twice: once against the aggregate bandwidth pool and
// once against the per-link topology model (ranks packed onto Summit
// nodes, per-node NIC caps, Alpine NSD fan-in), showing how placement
// stretches the same byte volume into longer bursts. The surrogate's
// mesh-exchange traffic is priced on the same topology, so compute and
// I/O traffic share one contention model.
//
// The closing sections are the experiment sweeps, each a campaign.Axis
// expanded by campaign.Cross: one Summit-scale case swept across
// roundrobin/knapsack/sfc placements (report.DistReport), the
// inter-burst layout reorganization (Wan et al., amr.RemapToTargets)
// rebalancing the rank→target fan-in of the round-robin placement, and
// the storage-tier sweep (report.StorageReport — the amrio-campaign
// -storage flag): the same 512-rank bursts priced against the Alpine
// GPFS, the node-local NVMe burst buffer, and the tiered stack, showing
// per-tier bytes, buffer fill, drain-compute overlap, and stall
// stragglers. The final section is the two-phase aggregation crossover
// (report.AggregationReport — the -aggregation flag): the same bursts as
// direct, 2-per-node, and 1-per-node collectives on GPFS and on the
// tiered stack, where the winning layout flips with the storage stack.
//
//	go run ./examples/scalingstudy
package main

import (
	"fmt"
	"log"
	"time"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/core"
	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/report"
	"amrproxyio/internal/resilience"
	"amrproxyio/internal/surrogate"
)

// totalCross sums the cross-rank traffic volume of an exchange.
func totalCross(pairs []iosim.PairBytes) int64 {
	var n int64
	for _, p := range pairs {
		if p.Src != p.Dst {
			n += p.Bytes
		}
	}
	return n
}

func main() {
	fmt.Println("Summit-scale AMR I/O scaling study (surrogate engine, metadata only)")
	fmt.Println()

	for _, n := range []int{8192, 32768, 131072} {
		c := campaign.Case{
			Name: fmt.Sprintf("scale_%d", n), NCell: n, MaxLevel: 2,
			MaxStep: 20, PlotInt: 10, CFL: 0.5,
			NProcs: 1024, Nodes: 512, Engine: campaign.EngineSurrogate,
		}

		// Aggregate model: one shared bandwidth pool.
		fs := iosim.New(iosim.DefaultConfig(), "")
		start := time.Now()
		res, err := campaign.Run(c, fs)
		if err != nil {
			log.Fatal(err)
		}
		cells := int64(n) * int64(n)
		fmt.Printf("%7dx%-7d (%5.2gB cells) -> %9s modeled output in %6v wall\n",
			n, n, float64(cells)/1e9, report.HumanBytes(res.TotalBytes()), time.Since(start).Round(time.Millisecond))
		aggregate := iosim.BurstStats(fs.Ledger())

		// Per-link model: same case, ranks packed onto its Summit nodes.
		topoCfg := iosim.DefaultConfig()
		topoCfg.Topology = c.Topology()
		tfs := iosim.New(topoCfg, "")
		if _, err := campaign.Run(c, tfs); err != nil {
			log.Fatal(err)
		}
		perLink := iosim.BurstStats(tfs.Ledger())
		for i, b := range aggregate {
			t := perLink[i]
			fmt.Printf("    step %2d: %9s across %5d files, burst %6.2fs aggregate | %6.2fs per-link (link-skew %.2f)\n",
				b.Step, report.HumanBytes(b.Bytes), b.Files, b.WallSeconds,
				t.WallSeconds, t.LinkSkew)
		}
	}

	// The mesh side of the same contention model: the surrogate's ghost
	// exchange priced per-node (solver stencil: 2 ghosts, 4 components).
	large := campaign.LargeCase()
	topo := large.Topology()
	runner, err := surrogate.New(large.Inputs(), surrogate.DefaultOptions(), nil)
	if err != nil {
		log.Fatal(err)
	}
	traffic := runner.ExchangeTraffic(2, 4)
	fmt.Printf("\nMesh exchange on %d nodes (%s): %s/step cross-rank, %.4gs at the NICs\n",
		topo.Nodes, large.Name,
		report.HumanBytes(totalCross(traffic)),
		topo.ExchangeTime(traffic, large.NProcs, 0))

	topoCfg := iosim.DefaultConfig()
	topoCfg.Topology = topo
	tfs := iosim.New(topoCfg, "")
	res, err := campaign.Run(large, tfs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("I/O bursts on the same topology: %s\n", report.LinkSummary(iosim.BurstStats(tfs.Ledger())))

	// Fig. 11: the 8192^2 per-step series against the calibrated kernel.
	fmt.Println("\nFig. 11 comparison (8192^2, kernel model vs surrogate measurement):")
	tr, err := core.Translate(large.Inputs(), res.Records, core.DefaultTranslateOptions())
	if err != nil {
		log.Fatal(err)
	}
	p, mape := report.Fig11(res, tr.Kernel)
	fmt.Println(p.Render())
	fmt.Printf("kernel MAPE at scale: %.3f%% (the paper: 'kernels in the vicinity'\n", mape)
	fmt.Println(" of the measured values; non-smooth jumps only approximated)")

	// Distribution-mapping experiment layer: the same Summit-scale case
	// swept across the three mapping strategies on the per-link model.
	// 1024 ranks fan into Alpine's 77 NSD targets, so placement decides
	// which targets collide.
	distCase := campaign.Case{
		Name: "dist_32768", NCell: 32768, MaxLevel: 2,
		MaxStep: 20, PlotInt: 10, CFL: 0.5,
		NProcs: 1024, Nodes: 512, Engine: campaign.EngineSurrogate,
	}
	fmt.Println("\nDistribution-mapping sweep (32768^2, 1024 ranks, per-link model):")
	dists := axis("dist", "roundrobin,knapsack,sfc")
	var distNames []string
	var distSums []report.DistSummary
	var distBursts [][]iosim.BurstStat
	for i, c := range campaign.Cross([]campaign.Case{distCase}, dists) {
		cfg := iosim.DefaultConfig()
		cfg.Topology = c.Topology()
		fold := run(c, cfg)
		distNames = append(distNames, dists.Variants[i].Name)
		distSums = append(distSums, report.SummarizeDist(dists.Variants[i].Name, fold))
		distBursts = append(distBursts, fold.Bursts())
	}
	fmt.Print(report.DistReport(distSums))
	fmt.Println(report.FigDistSkew(distNames, distBursts).Render())

	// The inter-burst layout reorganization (Wan et al.) on top of the
	// round-robin placement: amr.RemapToTargets rebalances the
	// rank→target fan-in from the hierarchy's per-rank load before each
	// dump.
	remapped := distCase
	remapped.Dist = campaign.DistRoundRobin
	remapped.Remap = true
	remapCfg := iosim.DefaultConfig()
	remapCfg.Topology = remapped.Topology()
	before := distSums[0]
	after := report.SummarizeDist("roundrobin+remap", run(remapped, remapCfg))
	fmt.Printf("inter-burst remap: max target fan-in %s -> %s (imbalance %.3f -> %.3f)\n",
		report.HumanBytes(before.MaxTargetBytes), report.HumanBytes(after.MaxTargetBytes),
		before.TargetImbalance, after.TargetImbalance)

	// Storage-tier sweep (the amrio-campaign -storage flag): the same
	// 512-rank case priced against gpfs, the node-local burst buffer,
	// and the tiered stack. A DataWarp-style per-job allocation (instead
	// of the whole 1.6 TB NVMe) and a single congested drain stream make
	// the fill/stall/drain dynamics visible at proxy scale; compute gaps
	// between steps (Case.ComputeSeconds) are what the drain overlaps.
	storageCase := campaign.Case{
		Name: "storage_16384", NCell: 16384, MaxLevel: 2,
		MaxStep: 20, PlotInt: 5, CFL: 0.5,
		NProcs: 512, Nodes: 128, Engine: campaign.EngineSurrogate,
		ComputeSeconds: 0.5,
	}
	fmt.Println("\nStorage-tier sweep (16384^2, 512 ranks, per-link model):")
	stacks := axis("storage", "gpfs,bb,bb+gpfs")
	var stackNames []string
	var storageSums []report.StorageSummary
	var storageBursts [][]iosim.BurstStat
	for i, c := range campaign.Cross([]campaign.Case{storageCase}, stacks) {
		cfg := c.FSConfig(true)
		cfg.PerWriterBandwidth = 1e8 // congested GPFS streams throttle the tiered drain
		cfg.BurstBuffer.NodeCapacity = 6.4e7
		cfg.BurstBuffer.DrainBandwidth = 8e8
		fold := run(c, cfg)
		stackNames = append(stackNames, stacks.Variants[i].Name)
		storageSums = append(storageSums, report.SummarizeStorage(stacks.Variants[i].Name, fold))
		storageBursts = append(storageBursts, fold.Bursts())
	}
	fmt.Print(report.StorageReport(storageSums))
	fmt.Println(report.FigBBFill(stackNames, storageBursts).Render())

	// Resilience demo (the amrio-campaign -faults flag): the tiered
	// 512-rank case run fault-free and under an injected plan — an NSD
	// target outage during the early bursts, a half-bandwidth node, and
	// MTBF-driven rank interrupts that replay from the last completed
	// checkpoint. The report prices what the checkpoint cadence buys:
	// lost work, restart reads, and the forward-progress rate.
	plan := &faults.Plan{
		Events: []faults.Event{
			{Kind: faults.KindTargetOutage, Start: 0.1, End: 20, Target: 0},
			{Kind: faults.KindNICDegrade, Start: 0, End: 30, Node: 0, Factor: 0.5},
		},
		MTBFSeconds: 40,
		Seed:        17,
	}
	fmt.Println("\nResilience sweep (16384^2, 512 ranks, bb+gpfs, injected faults):")
	tiered := storageCase
	tiered.Storage = campaign.StorageTiered
	faulted := campaign.Axis{Name: "faults", Variants: []campaign.Variant{
		{Name: "nofault", Apply: func(c *campaign.Case) { c.Faults = nil }},
		{Name: "faults", Apply: func(c *campaign.Case) { c.Faults = plan }},
	}}
	var resilSums []report.ResilienceSummary
	for _, c := range campaign.Cross([]campaign.Case{tiered}, faulted) {
		fs := iosim.New(c.FSConfig(true), "")
		if _, err := campaign.Run(c, fs); err != nil {
			log.Fatal(err)
		}
		resilSums = append(resilSums, report.ResilienceSummary{
			Name:       c.Name,
			Resilience: faults.Analyze(c.Faults, iosim.Fold(fs.Ledger()), fs.FaultEvents()),
		})
	}
	fmt.Print(report.ResilienceReport(resilSums))

	// Closed-loop mitigation demo (the amrio-campaign -mitigate flag):
	// the same faulted tiered case run passively and with the default
	// mitigation policy — adaptive checkpoint cadence off the online MTBF
	// estimate, target quarantine after repeated retry storms, and
	// degraded-mode plot shedding under fault pressure. The pair report
	// prices what the loop buys: forward progress up, storm seconds down.
	fmt.Println("\nMitigation comparison (16384^2, 512 ranks, bb+gpfs, default policy):")
	mitCase := tiered
	mitCase.Faults = plan
	mitigated := campaign.Axis{Name: "mitigate", Variants: []campaign.Variant{
		{Name: "nomitigate", Apply: func(c *campaign.Case) { c.Mitigate = nil }},
		{Name: "mitigate", Apply: func(c *campaign.Case) { c.Mitigate = resilience.DefaultPolicy() }},
	}}
	var mitSums [2]report.MitigationSummary
	for i, c := range campaign.Cross([]campaign.Case{mitCase}, mitigated) {
		fs := iosim.New(c.FSConfig(true), "")
		res, err := campaign.Run(c, fs)
		if err != nil {
			log.Fatal(err)
		}
		mitSums[i] = report.MitigationSummary{
			Name:    c.Name,
			Outcome: resilience.Evaluate(c.Name, plan, iosim.Fold(fs.Ledger()), fs.FaultEvents(), res.Mitigation),
		}
	}
	fmt.Print(report.MitigationReport([]report.MitigationPair{{
		Base: mitCase.Name, Unmitigated: mitSums[0], Mitigated: mitSums[1],
	}}))

	// Two-phase aggregation crossover (the amrio-campaign -aggregation
	// flag): the same 512-rank bursts swept across direct / 2-per-node /
	// 1-per-node collectives on bare GPFS and on the tiered stack. On
	// GPFS the per-writer stream cap binds, so concentrating 512 streams
	// into 128 loses more write time than the open savings recoup —
	// direct wins. On bb+gpfs the node-local NVMe absorbs per-rank
	// traffic regardless of fan-in, so the open-storm savings dominate
	// and 1/node wins: the optimal layout flips with the storage stack.
	aggCase := campaign.Case{
		Name: "agg_8192", NCell: 8192, MaxLevel: 2,
		MaxStep: 6, PlotInt: 2, CFL: 0.5,
		NProcs: 512, Nodes: 128, Engine: campaign.EngineSurrogate,
	}
	layouts := axis("aggregation", "direct,2/node,1/node")
	for _, storage := range []campaign.Storage{campaign.StorageGPFS, campaign.StorageTiered} {
		fmt.Printf("\nAggregation crossover (8192^2, 512 ranks, %s):\n", storage)
		stack := aggCase
		stack.Storage = storage
		var aggSums []report.AggregationSummary
		for _, c := range campaign.Cross([]campaign.Case{stack}, layouts) {
			cfg := c.FSConfig(true)
			cfg.JitterSigma = 0
			cfg.OpenLatency = 0.005      // a metadata-server round trip per open
			cfg.PerWriterBandwidth = 1e8 // congested per-stream GPFS caps
			aggSums = append(aggSums, report.SummarizeAggregation(c.Name, run(c, cfg)))
		}
		fmt.Print(report.AggregationReport(aggSums))
	}
}

// axis parses one sweep axis, exiting on a malformed list.
func axis(name, list string) campaign.Axis {
	ax, err := campaign.ParseAxis(name, list)
	if err != nil {
		log.Fatal(err)
	}
	return ax
}

// run executes one case on a fresh filesystem built from cfg and returns
// its finished fold.
func run(c campaign.Case, cfg iosim.Config) *iosim.CharacterizeFold {
	fold := iosim.NewCharacterizeFold()
	fs := iosim.New(cfg, "")
	fs.Attach(fold)
	if _, err := campaign.Run(c, fs); err != nil {
		log.Fatal(err)
	}
	fs.FlushConsumers()
	return fold
}

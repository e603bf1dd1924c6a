package campaign_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/report"
)

// TestCaseValidateAggregation: malformed specs are rejected by
// Case.Validate with the case name attached, and unknown JSON fields
// inside a case file's aggregation object fail the decode (the CLI's
// rejection path).
func TestCaseValidateAggregation(t *testing.T) {
	c := campaign.Case4()
	c.Aggregation = &iosim.AggregationSpec{Aggregators: "0/node"}
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "leaves no rank to write") {
		t.Fatalf("Validate error = %v, want the zero-aggregator rejection", err)
	}
	c.Aggregation = &iosim.AggregationSpec{Aggregators: "all", Layout: "hdf5"}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown layout")
	}

	var decoded campaign.Case
	bad := []byte(`{"name":"x","nprocs":4,"aggregation":{"aggregators":"all","writers":3}}`)
	if err := json.Unmarshal(bad, &decoded); err == nil {
		t.Fatal("case JSON with unknown aggregation field accepted")
	} else if !strings.Contains(err.Error(), "writers") {
		t.Fatalf("decode error %q does not name the unknown field", err)
	}
	good := []byte(`{"name":"x","nprocs":4,"aggregation":{"aggregators":"2/node","async":true}}`)
	if err := json.Unmarshal(good, &decoded); err != nil {
		t.Fatalf("valid case rejected: %v", err)
	}
	if decoded.Aggregation == nil || decoded.Aggregation.Aggregators != "2/node" {
		t.Fatalf("decoded case = %+v", decoded)
	}
}

// crossoverFS builds the filesystem the 512-rank crossover runs on:
// jitter-free so walls compare exactly, a GPFS open storm worth saving
// (5 ms/file), and a per-writer stream slow enough that concentrating
// four ranks' bytes onto one aggregator visibly costs write time.
func crossoverFS(c campaign.Case) *iosim.FileSystem {
	cfg := c.FSConfig(true)
	cfg.JitterSigma = 0
	cfg.OpenLatency = 0.005
	cfg.PerWriterBandwidth = 1e8
	return iosim.New(cfg, "")
}

// TestAggregationCrossover512 is the acceptance integration: a 512-rank
// Summit-scale surrogate case swept over {direct, 2/node, 1/node} ×
// {gpfs, bb+gpfs} must show the crossover — on the single-tier gpfs
// stack the per-writer stream binds, so concentrating bytes on fewer
// aggregators loses to the direct pattern; on the tiered stack the
// node-local buffer absorbs everyone at NVMe speed and the open-storm
// savings win — with non-zero fan-in and wall deltas, while the
// explicit all-ranks spec stays byte-identical to direct.
func TestAggregationCrossover512(t *testing.T) {
	// 8192² on MaxGridSize 256 gives 1024 level-0 boxes, so every one of
	// the 512 ranks owns data and the fan-in ladder is exact.
	base := campaign.Case{
		Name: "xover", NCell: 8192, MaxLevel: 2, MaxStep: 6, PlotInt: 2,
		CFL: 0.5, NProcs: 512, Nodes: 128, Engine: campaign.EngineSurrogate,
	}
	stacks, err := campaign.ParseAxis("storage", "gpfs,bb+gpfs")
	if err != nil {
		t.Fatal(err)
	}
	layouts, err := campaign.ParseAxis("aggregation", "direct,2/node,1/node")
	if err != nil {
		t.Fatal(err)
	}
	axes := []campaign.Axis{stacks, layouts}
	cases := campaign.Cross([]campaign.Case{base}, axes...)

	ledgers := make([][]iosim.WriteRecord, len(cases))
	for i, c := range cases {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		fs := crossoverFS(c)
		if _, err := campaign.Run(c, fs); err != nil {
			t.Fatal(err)
		}
		ledgers[i] = fs.Ledger()
	}

	// The all-ranks identity pin at full scale: the explicit "all" spec
	// must reproduce the direct gpfs ledger byte for byte.
	pin := base
	pin.Storage = campaign.StorageGPFS
	pin.Aggregation = &iosim.AggregationSpec{Aggregators: iosim.AggregatorsAll}
	fs := crossoverFS(pin)
	if _, err := campaign.Run(pin, fs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fs.Ledger(), ledgers[0]) { // xover_gpfs_direct
		t.Fatal("all-ranks spec is not byte-identical to the direct 512-rank run")
	}

	sums := map[campaign.Storage][]report.AggregationSummary{}
	for _, group := range campaign.Groups(1, axes, 1) {
		s := cases[group[0]].Storage
		for v, m := range group {
			sums[s] = append(sums[s], report.SummarizeAggregation(layouts.Variants[v].Name, iosim.Fold(ledgers[m])))
		}
	}

	// Fan-in: 512 producing ranks funnel through 256 and 128 writers.
	for _, s := range []campaign.Storage{campaign.StorageGPFS, campaign.StorageTiered} {
		wantWriters := []int{512, 256, 128}
		for i, sum := range sums[s] {
			if sum.Ranks != 512 {
				t.Errorf("%s %s: producing ranks = %d, want 512", s, sum.Name, sum.Ranks)
			}
			if sum.Writers != wantWriters[i] {
				t.Errorf("%s %s: writers = %d, want %d", s, sum.Name, sum.Writers, wantWriters[i])
			}
		}
		// Aggregated members pay a real gather phase.
		if sums[s][2].GatherSeconds <= 0 {
			t.Errorf("%s 1per-node: no gather time recorded", s)
		}
	}

	// The crossover: opposite winners on the two stacks, by a
	// non-trivial margin.
	gpfs, tiered := sums[campaign.StorageGPFS], sums[campaign.StorageTiered]
	if w := report.BestAggregation(gpfs); w != "direct" {
		t.Errorf("gpfs winner = %q, want the direct pattern (per-writer stream binds)", w)
	}
	if w := report.BestAggregation(tiered); w != "1per-node" {
		t.Errorf("bb+gpfs winner = %q, want 1per-node (open-storm savings)", w)
	}
	if d, a := gpfs[0].WallSeconds, gpfs[2].WallSeconds; a < d*1.01 {
		t.Errorf("gpfs: 1per-node wall %g not >1%% over direct %g", a, d)
	}
	if d, a := tiered[0].WallSeconds, tiered[2].WallSeconds; a > d*0.99 {
		t.Errorf("bb+gpfs: 1per-node wall %g not >1%% under direct %g", a, d)
	}

	// The rendered report carries the crossover line on the tiered stack.
	out := report.AggregationReport(tiered)
	if !strings.Contains(out, "aggregation comparison") || !strings.Contains(out, "crossover") {
		t.Errorf("tiered AggregationReport missing the crossover line:\n%s", out)
	}
}

// TestAggregatedFaultedRunDeterministic extends the 512-rank determinism
// pin with aggregation in the loop: a 2/node collective under a firing
// fault plan — including a rank interrupt on rank 0, an aggregator —
// run twice produces byte-identical ledgers and fault-event streams.
func TestAggregatedFaultedRunDeterministic(t *testing.T) {
	c := campaign.Case{
		Name: "aggdet", NCell: 8192, MaxLevel: 2, MaxStep: 6, PlotInt: 2,
		CFL: 0.5, NProcs: 512, Nodes: 128, Engine: campaign.EngineSurrogate,
		Storage: campaign.StorageTiered, ComputeSeconds: 0.2,
		Aggregation: &iosim.AggregationSpec{Aggregators: "2/node"},
		Faults: &faults.Plan{Events: []faults.Event{
			{Kind: faults.KindTargetOutage, Start: 0.01, End: 10, Target: 1},
			{Kind: faults.KindNICDegrade, Start: 0, End: 20, Node: 3, Factor: 0.25},
			{Kind: faults.KindBBLoss, Start: 0.5, Node: 0},
			{Kind: faults.KindRankInterrupt, Start: 1.5, Rank: 0},
		}},
	}
	run := func() ([]iosim.WriteRecord, []iosim.FaultEvent) {
		fs := iosim.New(c.FSConfig(true), "")
		if _, err := campaign.Run(c, fs); err != nil {
			t.Fatal(err)
		}
		return fs.Ledger(), fs.FaultEvents()
	}
	led1, ev1 := run()
	led2, ev2 := run()
	if len(ev1) == 0 {
		t.Fatal("plan injected no faults; the determinism pin is vacuous")
	}
	if !reflect.DeepEqual(led1, led2) {
		t.Fatal("aggregated faulted ledger differs across runs")
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatal("aggregated fault-event stream differs across runs")
	}
	// The collective actually engaged: member gathers appear in the
	// ledger and the fan-in is halved.
	writers := map[int]bool{}
	gathered := false
	for _, r := range led1 {
		if r.Dir {
			continue
		}
		if r.OpenSeconds > 0 {
			writers[r.Rank] = true
		}
		if r.GatherSeconds > 0 {
			gathered = true
		}
	}
	if len(writers) != 256 {
		t.Errorf("writers = %d, want 256 (2 aggregators per 4-rank node)", len(writers))
	}
	if !gathered {
		t.Error("no gather time recorded; aggregation never engaged")
	}
}

package campaign_test

import (
	"reflect"
	"testing"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/report"
	"amrproxyio/internal/resilience"
)

// Fold-vs-batch equivalence pins (Design 10): the same case run once
// retaining the full ledger and folding it after the fact, and once
// streaming into the fold with the ledger dropped burst by burst (by
// hand and on the Executor), must produce DeepEqual characterizations,
// burst stats, and every report row read off the fold, across every
// storage stack, with and without topology, aggregation, and fault
// injection. The streaming run's filesystem must finish with an empty
// ledger: that emptiness is the memory claim.

type foldVariant struct {
	name string
	topo bool
	mut  func(*campaign.Case)
}

func foldVariants() []foldVariant {
	plan := &faults.Plan{
		Events: []faults.Event{
			{Kind: faults.KindTargetOutage, Start: 0.01, End: 10, Target: 1},
			{Kind: faults.KindNICDegrade, Start: 0, End: 20, Node: 3, Factor: 0.25},
			{Kind: faults.KindBBLoss, Start: 0.5, Node: 0},
		},
		MTBFSeconds: 50,
		Seed:        9,
	}
	return []foldVariant{
		{"default-aggregate", false, func(c *campaign.Case) {}},
		{"gpfs-topology", true, func(c *campaign.Case) { c.Storage = campaign.StorageGPFS }},
		{"bb-topology", true, func(c *campaign.Case) { c.Storage = campaign.StorageBB }},
		{"tiered-topology", true, func(c *campaign.Case) { c.Storage = campaign.StorageTiered }},
		{"tiered-aggregation", true, func(c *campaign.Case) {
			c.Storage = campaign.StorageTiered
			c.Aggregation = &iosim.AggregationSpec{Aggregators: "2/node"}
		}},
		{"gpfs-faults", true, func(c *campaign.Case) {
			c.Storage = campaign.StorageGPFS
			c.Faults = plan
		}},
		{"tiered-aggregation-faults", true, func(c *campaign.Case) {
			c.Storage = campaign.StorageTiered
			c.Aggregation = &iosim.AggregationSpec{Aggregators: "2/node"}
			c.Faults = plan
			c.ComputeSeconds = 0.2
		}},
	}
}

// run is one execution of a case reduced to its fold and fault events.
type run struct {
	fold   *iosim.CharacterizeFold
	events []iosim.FaultEvent
}

// runBoth executes the case through the batch path (full ledger, folded
// after the fact), a hand-built streaming filesystem, and the Executor
// that amrio-campaign and serve run every case on, and returns the
// three runs plus the batch ledger.
func runBoth(t *testing.T, c campaign.Case, topo bool) (batch, stream, exec run, ledger []iosim.WriteRecord) {
	t.Helper()

	batchFS := iosim.New(c.FSConfig(topo), "")
	if _, err := campaign.Run(c, batchFS); err != nil {
		t.Fatal(err)
	}
	ledger = batchFS.Ledger()
	if len(ledger) == 0 {
		t.Fatal("batch run produced no records — variant exercises nothing")
	}
	batch = run{iosim.Fold(ledger), batchFS.FaultEvents()}

	streamFS := iosim.New(c.FSConfig(topo), "") // RetainAuto + consumers → drop
	stream.fold = iosim.NewCharacterizeFold()
	streamFS.Attach(stream.fold)
	if _, err := campaign.Run(c, streamFS); err != nil {
		t.Fatal(err)
	}
	streamFS.FlushConsumers()
	stream.events = streamFS.FaultEvents()
	if got := len(streamFS.Ledger()); got != 0 {
		t.Errorf("streaming run retained %d records; RetainAuto with consumers must drop them", got)
	}
	if streamFS.TotalBytes() != batchFS.TotalBytes() {
		t.Errorf("TotalBytes diverged: stream %d, batch %d", streamFS.TotalBytes(), batchFS.TotalBytes())
	}

	if _, err := campaign.RunAll([]campaign.Case{c}, 1, campaign.NewExecutor(0, topo),
		campaign.WithOutputs(func(_ int, _ campaign.CaseOutput, red *campaign.Reduction, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			exec = run{red.Fold, red.Faults}
		})); err != nil {
		t.Fatal(err)
	}
	return batch, stream, exec, ledger
}

// checkRows requires every row a report reads off a fold — profile,
// bursts, the placement/storage/aggregation rows, the topology report
// and link summary, the recovery and mitigation models — to be DeepEqual
// between the streamed fold (and the Executor's) and the batch fold fed
// from the slice.
func checkRows(t *testing.T, c campaign.Case, batch, stream, exec run, ledger []iosim.WriteRecord) {
	t.Helper()
	if got, want := stream.fold.Profile(), iosim.Fold(ledger).Profile(); !reflect.DeepEqual(got, want) {
		t.Errorf("characterization fold != batch\nfold:  %+v\nbatch: %+v", got, want)
	}
	if got, want := stream.fold.Bursts(), iosim.Fold(ledger).Bursts(); !reflect.DeepEqual(got, want) {
		t.Errorf("burst stats fold != batch\nfold:  %+v\nbatch: %+v", got, want)
	}
	rows := func(r run) map[string]any {
		return map[string]any{
			"profile":     r.fold.Profile(),
			"dist":        report.SummarizeDist("d", r.fold),
			"storage":     report.SummarizeStorage("s", r.fold),
			"aggregation": report.SummarizeAggregation("a", r.fold),
			"topology":    report.TopologyReport(r.fold),
			"link":        report.LinkSummary(r.fold.Bursts()),
			"resilience":  faults.Analyze(c.Faults, r.fold, r.events),
			"mitigation":  resilience.Evaluate(c.Name, c.Faults, r.fold, r.events, nil),
		}
	}
	want := rows(batch)
	for arm, r := range map[string]run{"stream": stream, "executor": exec} {
		if r.fold == nil {
			t.Errorf("%s arm produced no fold", arm)
			continue
		}
		for name, got := range rows(r) {
			if !reflect.DeepEqual(got, want[name]) {
				t.Errorf("%s %s row != batch\nfold:  %+v\nbatch: %+v", arm, name, got, want[name])
			}
		}
	}
}

func TestFoldEquivalenceSurrogate(t *testing.T) {
	base := campaign.Case{
		Name: "foldeq", NCell: 4096, MaxLevel: 2, MaxStep: 6, PlotInt: 2,
		CFL: 0.5, NProcs: 128, Nodes: 32, Engine: campaign.EngineSurrogate,
	}
	for _, v := range foldVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			c := base
			v.mut(&c)
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			batch, stream, exec, ledger := runBoth(t, c, v.topo)
			checkRows(t, c, batch, stream, exec, ledger)
		})
	}
}

// TestFoldEquivalenceHydro covers the full-solver engine and the
// plotfile writer path (directory/metadata records included) on the
// aggregate and topology models.
func TestFoldEquivalenceHydro(t *testing.T) {
	base := campaign.Case{
		Name: "foldeqh", NCell: 32, MaxLevel: 1, MaxStep: 4, PlotInt: 2,
		CFL: 0.5, NProcs: 4, Nodes: 2, Engine: campaign.EngineHydro,
	}
	for _, v := range []foldVariant{
		{"aggregate", false, func(c *campaign.Case) {}},
		{"tiered-topology", true, func(c *campaign.Case) { c.Storage = campaign.StorageTiered }},
	} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			c := base
			v.mut(&c)
			batch, stream, exec, ledger := runBoth(t, c, v.topo)
			checkRows(t, c, batch, stream, exec, ledger)
		})
	}
}

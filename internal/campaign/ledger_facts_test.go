package campaign_test

import (
	"fmt"
	"testing"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/resilience"
)

// checkLedgerFacts requires the three ledger facts CharacterizeFold
// keys its tables on:
//   - a record with a storage target is a data record on a compute node
//     (Target >= 0 implies !Dir and Node >= 0), so per-target bytes are
//     the data bytes of topology-labeled records;
//   - every record of a rank carries the same Node, so a rank's node is
//     a property of the rank and per-node sums are derived from per-rank
//     ones;
//   - directory records carry no bytes.
func checkLedgerFacts(t *testing.T, ledger []iosim.WriteRecord) {
	t.Helper()
	if len(ledger) == 0 {
		t.Fatal("empty ledger: the run exercises nothing")
	}
	nodeOf := map[int]int{}
	for i, r := range ledger {
		if r.Target >= 0 && (r.Dir || r.Node < 0) {
			t.Fatalf("record %d (%s): Target %d on a dir=%v record at node %d", i, r.Path, r.Target, r.Dir, r.Node)
		}
		if n, ok := nodeOf[r.Rank]; ok && n != r.Node {
			t.Fatalf("record %d (%s): rank %d on node %d, earlier records on node %d", i, r.Path, r.Rank, r.Node, n)
		}
		nodeOf[r.Rank] = r.Node
		if r.Dir && r.Bytes != 0 {
			t.Fatalf("record %d (%s): directory record carries %d bytes", i, r.Path, r.Bytes)
		}
	}
}

// TestLedgerFactsHold runs the fold-equivalence config space — both
// engines, every storage stack, aggregation, faults with and without
// mitigation, each with and without topology — plus MACSio, and checks
// the facts on every retained ledger.
func TestLedgerFactsHold(t *testing.T) {
	surrogate := campaign.Case{
		Name: "facts", NCell: 4096, MaxLevel: 2, MaxStep: 6, PlotInt: 2,
		CFL: 0.5, NProcs: 128, Nodes: 32, Engine: campaign.EngineSurrogate,
	}
	hydro := campaign.Case{
		Name: "factsh", NCell: 32, MaxLevel: 1, MaxStep: 4, PlotInt: 2,
		CFL: 0.5, NProcs: 4, Nodes: 2, Engine: campaign.EngineHydro,
	}
	var cases []campaign.Case
	for _, v := range foldVariants() {
		c := surrogate
		v.mut(&c)
		c.Name = v.name
		cases = append(cases, c)
		if c.Faults != nil {
			c.Mitigate = resilience.DefaultPolicy()
			c.Name += "-mitigated"
			cases = append(cases, c)
		}
	}
	for _, s := range []campaign.Storage{"", campaign.StorageTiered} {
		c := hydro
		c.Storage = s
		c.Name = "hydro-" + string(s)
		cases = append(cases, c)
	}
	for _, c := range cases {
		for _, topo := range []bool{false, true} {
			c := c
			topo := topo
			t.Run(fmt.Sprintf("%s/topology=%v", c.Name, topo), func(t *testing.T) {
				t.Parallel()
				if err := c.Validate(); err != nil {
					t.Fatal(err)
				}
				fs := iosim.New(c.FSConfig(topo), "")
				if _, err := campaign.Run(c, fs); err != nil {
					t.Fatal(err)
				}
				checkLedgerFacts(t, fs.Ledger())
			})
		}
	}
	t.Run("macsio/topology-aggregation", func(t *testing.T) {
		cfg := iosim.DefaultConfig()
		cfg.Topology = iosim.TopologyForCase(2, 8)
		cfg.Aggregation = iosim.AggregationSpec{Aggregators: "1/node"}
		fs := iosim.New(cfg, "")
		mcfg := macsio.DefaultConfig()
		mcfg.NProcs = 8
		mcfg.NumDumps = 3
		if _, err := macsio.Run(fs, mcfg); err != nil {
			t.Fatal(err)
		}
		checkLedgerFacts(t, fs.Ledger())
	})
}

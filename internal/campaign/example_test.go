package campaign_test

import (
	"fmt"

	"amrproxyio/internal/campaign"
)

// ExampleRunAll executes a small sweep on the worker pool, every case on
// an uncached executor against its per-link contention model. Results
// are identical at any parallelism (RunAll's serial-equivalence
// contract), so the output is deterministic even though the two cases
// run concurrently.
func ExampleRunAll() {
	cases := []campaign.Case{
		{Name: "tiny32", NCell: 32, MaxLevel: 1, MaxStep: 8, PlotInt: 4,
			CFL: 0.5, NProcs: 2, Nodes: 1, Engine: campaign.EngineHydro},
		{Name: "tiny64", NCell: 64, MaxLevel: 1, MaxStep: 8, PlotInt: 4,
			CFL: 0.5, NProcs: 2, Nodes: 1, Engine: campaign.EngineHydro},
	}
	results, err := campaign.RunAll(cases, 2, campaign.NewExecutor(0, true))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, r := range results {
		fmt.Printf("%s: %d plots, %d bytes\n", r.Case.Name, r.NPlots, r.TotalBytes())
	}

	// Output:
	// tiny32: 3 plots, 430260 bytes
	// tiny64: 3 plots, 1167813 bytes
}

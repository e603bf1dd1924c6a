package campaign

// Tests for the fault-injection campaign surface: Case validation of
// plans and compute time, RunAll's panic
// recovery and per-case timeout, and the 512-rank resilience
// integration (non-zero lost-work/failover/restart-read deltas under an
// injected plan).

import (
	"context"
	"strings"
	"testing"
	"time"

	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
)

func TestValidateRejections(t *testing.T) {
	base := Case{Name: "v", NCell: 32, MaxLevel: 2, MaxStep: 10, PlotInt: 5, CFL: 0.5, NProcs: 2, Engine: EngineHydro}
	cases := []struct {
		name string
		mut  func(*Case)
		want string
	}{
		{"unknown engine", func(c *Case) { c.Engine = "fortran" }, "unknown engine"},
		{"unknown dist", func(c *Case) { c.Dist = "random" }, "unknown distribution"},
		{"unknown storage", func(c *Case) { c.Storage = "nvme" }, "unknown storage"},
		{"negative compute", func(c *Case) { c.ComputeSeconds = -1 }, "negative compute_seconds"},
		{"bad fault kind", func(c *Case) {
			c.Faults = &faults.Plan{Events: []faults.Event{{Kind: "bogus"}}}
		}, "unknown fault kind"},
		{"bad fault window", func(c *Case) {
			c.Faults = &faults.Plan{Events: []faults.Event{{Kind: faults.KindTargetOutage, Start: 5, End: 1}}}
		}, "end 1 <= start 5"},
		{"negative mtbf", func(c *Case) { c.Faults = &faults.Plan{MTBFSeconds: -3} }, "negative mtbf_seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mut(&c)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	good := base
	good.Faults = faults.DefaultPlan()
	good.ComputeSeconds = 0.5
	if err := good.Validate(); err != nil {
		t.Fatalf("valid faulted case rejected: %v", err)
	}
}

func TestRunAllRecoversPanics(t *testing.T) {
	cases := runAllCases()[:3]
	// An executor whose simulation panics for one case.
	e := NewExecutor(0, false)
	e.run = func(ctx context.Context, c Case, fs *iosim.FileSystem) (Result, error) {
		if c.Name == cases[1].Name {
			panic("poisoned case")
		}
		return run(ctx, c, fs)
	}
	results, err := RunAll(cases, 2, e)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("RunAll error = %v, want a recovered panic", err)
	}
	if len(results) != len(cases) {
		t.Fatalf("got %d results, want %d", len(results), len(cases))
	}
	// Healthy siblings still completed.
	for _, i := range []int{0, 2} {
		if results[i].NPlots == 0 {
			t.Errorf("sibling %s did not complete: %+v", cases[i].Name, results[i])
		}
	}
	if results[1].NPlots != 0 {
		t.Errorf("panicked case reported work: %+v", results[1])
	}
}

func TestRunAllCaseTimeout(t *testing.T) {
	// Millisecond-scale surrogate cases so only the deliberately stalled
	// one can trip the bound.
	cases := []Case{
		{Name: "to_stall", NCell: 1024, MaxLevel: 2, MaxStep: 4, PlotInt: 2, CFL: 0.5, NProcs: 4, Engine: EngineSurrogate},
		{Name: "to_fast", NCell: 1024, MaxLevel: 2, MaxStep: 4, PlotInt: 2, CFL: 0.5, NProcs: 4, Engine: EngineSurrogate},
	}
	// Stall one case's simulation past the timeout, waking at the
	// deadline; the sibling must still finish.
	e := NewExecutor(0, false)
	e.run = func(ctx context.Context, c Case, fs *iosim.FileSystem) (Result, error) {
		if c.Name == cases[0].Name {
			select {
			case <-time.After(2 * time.Second):
			case <-ctx.Done():
			}
		}
		return run(ctx, c, fs)
	}
	results, err := RunAll(cases, 2, e, WithCaseTimeout(250*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("RunAll error = %v, want a timeout", err)
	}
	if results[0].NPlots != 0 {
		t.Errorf("timed-out case reported work: %+v", results[0])
	}
	if results[1].NPlots == 0 {
		t.Errorf("sibling did not complete: %+v", results[1])
	}

	// Without the option (or with a generous bound) everything passes.
	if _, err := RunAll(cases, 2, nil, WithCaseTimeout(time.Minute)); err != nil {
		t.Fatalf("generous timeout failed: %v", err)
	}
}

// TestResilienceIntegration512 is the acceptance integration: a 512-rank
// Summit-scale surrogate case on the tiered stack, run fault-free and
// under an injected outage + interrupt plan. The faulted run must show
// non-zero lost work, failovers, and restart reads — and a strictly
// degraded forward-progress rate.
func TestResilienceIntegration512(t *testing.T) {
	base := Case{
		Name: "resil", NCell: 4096, MaxLevel: 2, MaxStep: 12, PlotInt: 3,
		CFL: 0.5, NProcs: 512, Nodes: 128, Engine: EngineSurrogate,
		Storage: StorageTiered, ComputeSeconds: 0.5,
	}
	plan := &faults.Plan{
		Events: []faults.Event{
			{Kind: faults.KindTargetOutage, Start: 0.01, End: 30, Target: 0},
			{Kind: faults.KindRankInterrupt, Start: 1.5, Rank: 7},
			{Kind: faults.KindRankInterrupt, Start: 3.5, Rank: 130},
		},
		MTBFSeconds: 50,
		Seed:        9,
	}

	run := func(p *faults.Plan) faults.Resilience {
		c := base
		c.Faults = p
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		fs := iosim.New(c.FSConfig(true), "")
		res, err := Run(c, fs)
		if err != nil {
			t.Fatal(err)
		}
		if res.NPlots == 0 {
			t.Fatal("no plots written")
		}
		return faults.Analyze(p, iosim.Fold(fs.Ledger()), fs.FaultEvents())
	}

	clean := run(nil)
	faulted := run(plan)

	if clean.FaultWrites != 0 || clean.Failovers != 0 || clean.LostWorkSeconds != 0 {
		t.Fatalf("fault-free run shows fault activity: %+v", clean)
	}
	if clean.ForwardProgress != 1 {
		t.Fatalf("fault-free forward progress = %g, want 1", clean.ForwardProgress)
	}
	if faulted.LostWorkSeconds <= 0 {
		t.Errorf("faulted lost work = %g, want > 0", faulted.LostWorkSeconds)
	}
	if faulted.Failovers <= 0 {
		t.Errorf("faulted failovers = %d, want > 0", faulted.Failovers)
	}
	if faulted.RestartReadSeconds <= 0 {
		t.Errorf("faulted restart reads = %g, want > 0", faulted.RestartReadSeconds)
	}
	if faulted.Retries <= 0 {
		t.Errorf("faulted retries = %d, want > 0", faulted.Retries)
	}
	if faulted.ForwardProgress >= clean.ForwardProgress {
		t.Errorf("forward progress not degraded: faulted %g vs clean %g",
			faulted.ForwardProgress, clean.ForwardProgress)
	}
	if faulted.Checkpoints == 0 || faulted.Interrupts < 2 {
		t.Errorf("faulted timeline: %+v", faulted)
	}
}

// TestFaultedRunDeterministic: the same faulted 512-rank case run twice
// produces byte-identical ledgers and fault-event streams.
func TestFaultedRunDeterministic(t *testing.T) {
	c := Case{
		Name: "det", NCell: 2048, MaxLevel: 2, MaxStep: 6, PlotInt: 2,
		CFL: 0.5, NProcs: 512, Nodes: 128, Engine: EngineSurrogate,
		Storage: StorageTiered, ComputeSeconds: 0.2,
		Faults: &faults.Plan{Events: []faults.Event{
			{Kind: faults.KindTargetOutage, Start: 0.01, End: 10, Target: 1},
			{Kind: faults.KindNICDegrade, Start: 0, End: 20, Node: 3, Factor: 0.25},
			{Kind: faults.KindBBLoss, Start: 0.5, Node: 0},
		}},
	}
	run := func() ([]iosim.WriteRecord, []iosim.FaultEvent) {
		fs := iosim.New(c.FSConfig(true), "")
		if _, err := Run(c, fs); err != nil {
			t.Fatal(err)
		}
		return fs.Ledger(), fs.FaultEvents()
	}
	led1, ev1 := run()
	led2, ev2 := run()
	if len(ev1) == 0 {
		t.Fatal("plan injected no faults; the determinism pin is vacuous")
	}
	if len(led1) != len(led2) {
		t.Fatalf("ledger lengths differ: %d vs %d", len(led1), len(led2))
	}
	for i := range led1 {
		if led1[i] != led2[i] {
			t.Fatalf("ledger record %d differs:\n%+v\n%+v", i, led1[i], led2[i])
		}
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("fault event %d differs:\n%+v\n%+v", i, ev1[i], ev2[i])
		}
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event lengths differ: %d vs %d", len(ev1), len(ev2))
	}
}

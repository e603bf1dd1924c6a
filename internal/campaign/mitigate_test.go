package campaign

import (
	"reflect"
	"testing"

	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/resilience"
)

// TestZeroPolicyByteIdentical is the no-regression property pin: a case
// run with Mitigate == nil and the same case run with a present-but-zero
// Policy must produce byte-identical ledgers, fault-event streams, and
// burst stats on every storage stack. A zero policy builds no engine, so
// the write path must be untouched.
func TestZeroPolicyByteIdentical(t *testing.T) {
	base := Case{
		Name: "zero", NCell: 1024, MaxLevel: 2, MaxStep: 6, PlotInt: 2,
		CFL: 0.5, NProcs: 64, Nodes: 16, Engine: EngineSurrogate,
		ComputeSeconds: 0.2,
		Faults: &faults.Plan{Events: []faults.Event{
			{Kind: faults.KindTargetOutage, Start: 0, End: 10, Target: 0},
			{Kind: faults.KindNICDegrade, Start: 0, End: 20, Node: 1, Factor: 0.5},
			{Kind: faults.KindBBLoss, Start: 0.3, Node: 0},
		}},
	}
	for _, c := range Cross([]Case{base}, mustAxis(t, "storage", "gpfs,bb,bb+gpfs")) {
		run := func(p *resilience.Policy) ([]iosim.WriteRecord, []iosim.FaultEvent, []iosim.BurstStat, *resilience.Stats) {
			m := c
			m.Mitigate = p
			fs := iosim.New(m.FSConfig(true), "")
			res, err := Run(m, fs)
			if err != nil {
				t.Fatal(err)
			}
			return fs.Ledger(), fs.FaultEvents(), iosim.Fold(fs.Ledger()).Bursts(), res.Mitigation
		}
		ledNil, evNil, bsNil, mitNil := run(nil)
		ledZero, evZero, bsZero, mitZero := run(&resilience.Policy{})
		if len(evNil) == 0 {
			t.Fatalf("%s: plan injected no faults; the pin is vacuous", c.Name)
		}
		if mitNil != nil || mitZero != nil {
			t.Errorf("%s: zero-policy run reports mitigation stats: %+v %+v", c.Name, mitNil, mitZero)
		}
		if !reflect.DeepEqual(ledNil, ledZero) {
			t.Errorf("%s: ledgers differ between nil and zero policy", c.Name)
		}
		if !reflect.DeepEqual(evNil, evZero) {
			t.Errorf("%s: fault events differ between nil and zero policy", c.Name)
		}
		if !reflect.DeepEqual(bsNil, bsZero) {
			t.Errorf("%s: burst stats differ between nil and zero policy", c.Name)
		}
	}
}

// TestMitigatedRunDeterministic512: the mitigated 512-rank case run twice
// (the engine observes between bursts) produces
// byte-identical ledgers and fault-event streams — the closed loop must
// not introduce schedule-dependent decisions.
func TestMitigatedRunDeterministic512(t *testing.T) {
	c := Case{
		Name: "mitdet", NCell: 2048, MaxLevel: 2, MaxStep: 6, PlotInt: 2,
		CFL: 0.5, NProcs: 512, Nodes: 128, Engine: EngineSurrogate,
		Storage: StorageTiered, ComputeSeconds: 0.2,
		Faults: &faults.Plan{
			Events: []faults.Event{
				{Kind: faults.KindTargetOutage, Start: 0.01, End: 10, Target: 1},
				{Kind: faults.KindNICDegrade, Start: 0, End: 20, Node: 3, Factor: 0.25},
			},
			MTBFSeconds: 1.5,
			Seed:        7,
		},
		Mitigate: resilience.DefaultPolicy(),
	}
	run := func() ([]iosim.WriteRecord, []iosim.FaultEvent, *resilience.Stats) {
		fs := iosim.New(c.FSConfig(true), "")
		res, err := Run(c, fs)
		if err != nil {
			t.Fatal(err)
		}
		return fs.Ledger(), fs.FaultEvents(), res.Mitigation
	}
	led1, ev1, mit1 := run()
	led2, ev2, mit2 := run()
	if len(ev1) == 0 {
		t.Fatal("plan injected no faults; the determinism pin is vacuous")
	}
	if mit1 == nil {
		t.Fatal("mitigated run returned no mitigation stats")
	}
	if mit1.QuarantinedTargets == 0 {
		t.Errorf("quarantine breaker never tripped: %+v", mit1)
	}
	if !reflect.DeepEqual(mit1, mit2) {
		t.Errorf("mitigation stats differ across runs:\n%+v\n%+v", mit1, mit2)
	}
	if len(led1) != len(led2) {
		t.Fatalf("ledger lengths differ: %d vs %d", len(led1), len(led2))
	}
	for i := range led1 {
		if led1[i] != led2[i] {
			t.Fatalf("ledger record %d differs:\n%+v\n%+v", i, led1[i], led2[i])
		}
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event lengths differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("fault event %d differs:\n%+v\n%+v", i, ev1[i], ev2[i])
		}
	}
}

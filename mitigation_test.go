package amrproxyio_test

import (
	"strings"
	"testing"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/report"
	"amrproxyio/internal/resilience"
)

// TestMitigation512Ranks is the PR's headline acceptance: a 512-rank
// surrogate campaign case under a harsh fault plan (long target outage +
// a 3 s MTBF interrupt process), run unmitigated and mitigated with the
// default policy. Mitigation must strictly raise forward progress and
// strictly cut retry-storm time — the closed loop has to beat doing
// nothing, not just differ from it.
func TestMitigation512Ranks(t *testing.T) {
	base := campaign.Case{
		Name: "mit512", NCell: 4096, MaxLevel: 2, MaxStep: 20, PlotInt: 2,
		CFL: 0.5, NProcs: 512, Nodes: 128, Engine: campaign.EngineSurrogate,
		Storage: campaign.StorageTiered, ComputeSeconds: 0.5,
		Faults: &faults.Plan{
			Events: []faults.Event{
				{Kind: faults.KindTargetOutage, Start: 0, Target: 0},
				{Kind: faults.KindTargetOutage, Start: 0.5, Target: 1},
			},
			MTBFSeconds: 3,
			Seed:        9,
		},
	}
	run := func(p *resilience.Policy, name string) resilience.Outcome {
		c := base
		c.Name = name
		c.Mitigate = p
		fs := iosim.New(c.FSConfig(true), "")
		res, err := campaign.Run(c, fs)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs.FaultEvents()) == 0 {
			t.Fatalf("%s: plan injected no faults; the comparison is vacuous", name)
		}
		return resilience.Evaluate(name, c.Faults, iosim.Fold(fs.Ledger()), fs.FaultEvents(), res.Mitigation)
	}
	unmit := run(nil, "mit512_nomitigate")
	mit := run(resilience.DefaultPolicy(), "mit512_mitigate")

	if unmit.Stats != (resilience.Stats{}) {
		t.Errorf("unmitigated run carries engine stats: %+v", unmit.Stats)
	}
	if mit.ForwardProgress <= unmit.ForwardProgress {
		t.Errorf("mitigated forward progress %.4f <= unmitigated %.4f",
			mit.ForwardProgress, unmit.ForwardProgress)
	}
	if mit.RetryStormSeconds >= unmit.RetryStormSeconds {
		t.Errorf("mitigated retry-storm %.4gs >= unmitigated %.4gs",
			mit.RetryStormSeconds, unmit.RetryStormSeconds)
	}
	if mit.Stats.QuarantinedTargets == 0 {
		t.Errorf("no target was ever quarantined: %+v", mit.Stats)
	}
	if mit.Stats.AdaptiveCheckpoints == 0 {
		t.Errorf("adaptive cadence never checkpointed: %+v", mit.Stats)
	}
	if mit.Stats.ObservedMTBFSeconds <= 0 {
		t.Errorf("online MTBF estimate never came live: %+v", mit.Stats)
	}

	out := report.MitigationReport([]report.MitigationPair{{
		Base:        "mit512",
		Unmitigated: report.MitigationSummary{Name: unmit.Name, Outcome: unmit},
		Mitigated:   report.MitigationSummary{Name: mit.Name, Outcome: mit},
	}})
	if !strings.Contains(out, "fwd-progress delta: +") {
		t.Errorf("mitigation report lost the positive delta marker:\n%s", out)
	}
	t.Logf("512-rank mitigation comparison:\n%s", out)
}

// TestMitigationMacsioQuarantine pins the quarantine loop on the proxy
// app, where no remap can route around a dead target: after the breaker
// trips, later dumps' writes to the dead target must be absorbed as
// Mitigated events (immediate failover, zero storm seconds), and the
// mitigated run must strictly beat the unmitigated one.
func TestMitigationMacsioQuarantine(t *testing.T) {
	cfg := macsio.DefaultConfig()
	cfg.NProcs = 64
	cfg.NumDumps = 8
	cfg.PartSize = 200000
	cfg.ComputeTime = 1
	plan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindTargetOutage, Start: 0, Target: 0},
		{Kind: faults.KindTargetOutage, Start: 0, Target: 1},
	}}
	run := func(mitigate bool) ([]iosim.FaultEvent, resilience.Outcome) {
		fsCfg := iosim.DefaultConfig()
		fsCfg.JitterSigma = 0
		fsCfg.Topology = iosim.TopologyForCase(16, cfg.NProcs)
		fsCfg.Faults = plan.Injector(fsCfg.Topology)
		fs := iosim.New(fsCfg, "")
		var eng *resilience.Engine
		if mitigate {
			eng = resilience.ForFileSystem(resilience.DefaultPolicy(), fs, cfg.NProcs)
			if eng == nil {
				t.Fatal("no engine for mitigated macsio run")
			}
		}
		if _, err := macsio.RunMitigated(fs, cfg, eng); err != nil {
			t.Fatal(err)
		}
		return fs.FaultEvents(), resilience.Evaluate("macsio", plan, iosim.Fold(fs.Ledger()), fs.FaultEvents(), eng.Stats())
	}
	evs, unmit := run(false)
	for i, ev := range evs {
		if ev.Mitigated {
			t.Fatalf("unmitigated run produced a mitigated event %d: %+v", i, ev)
		}
	}
	mevs, mit := run(true)
	if mit.MitigatedWrites == 0 {
		t.Fatal("quarantine absorbed no writes on the proxy app")
	}
	var sawMitigated bool
	for _, ev := range mevs {
		if !ev.Mitigated {
			continue
		}
		sawMitigated = true
		if ev.Seconds != 0 || ev.Retries != 0 {
			t.Errorf("mitigated event still paid the storm: %+v", ev)
		}
		if ev.FailoverTarget < 0 {
			t.Errorf("mitigated event did not fail over: %+v", ev)
		}
	}
	if !sawMitigated {
		t.Fatal("no Mitigated events in the mitigated run's stream")
	}
	if mit.ForwardProgress <= unmit.ForwardProgress {
		t.Errorf("mitigated macsio forward progress %.4f <= unmitigated %.4f",
			mit.ForwardProgress, unmit.ForwardProgress)
	}
	if mit.RetryStormSeconds >= unmit.RetryStormSeconds {
		t.Errorf("mitigated macsio retry-storm %.4gs >= unmitigated %.4gs",
			mit.RetryStormSeconds, unmit.RetryStormSeconds)
	}
}

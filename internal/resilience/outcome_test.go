package resilience

import (
	"testing"

	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
)

func TestEvaluateFaultFree(t *testing.T) {
	o := Evaluate("clean", nil, iosim.Fold(nil), nil, nil)
	if o.ForwardProgress != 1 {
		t.Errorf("fault-free forward progress = %g, want 1", o.ForwardProgress)
	}
	if o.RetryStormSeconds != 0 || o.FaultCriticalSeconds != 0 || o.MitigatedWrites != 0 {
		t.Errorf("fault-free outcome carries fault numbers: %+v", o)
	}
}

func TestEvaluateSeparatesMitigatedStorms(t *testing.T) {
	records := []iosim.WriteRecord{
		{Rank: 0, Bytes: 100, Start: 0, Duration: 3, Labels: iosim.Labels{Step: 0}},
		{Rank: 1, Bytes: 100, Start: 0, Duration: 1, Labels: iosim.Labels{Step: 0}},
	}
	events := []iosim.FaultEvent{
		{Kind: faults.KindTargetOutage, Rank: 0, Target: 0, Start: 0, Seconds: 2.1, Retries: 3, FailoverTarget: 1},
		{Kind: faults.KindTargetOutage, Rank: 0, Target: 0, Start: 2.5, Seconds: 0, Retries: 0, FailoverTarget: 1, Mitigated: true},
		{Kind: faults.KindNICDegrade, Rank: 1, Node: 0, Start: 0, Seconds: 0.4},
	}
	o := Evaluate("run", nil, iosim.Fold(records), events, &Stats{QuarantinedTargets: 1})

	// Only the unmitigated storm counts toward retry-storm time.
	if o.RetryStormSeconds != 2.1 {
		t.Errorf("retry-storm = %g, want 2.1 (mitigated storms excluded)", o.RetryStormSeconds)
	}
	if o.MitigatedWrites != 1 {
		t.Errorf("mitigated writes = %d, want 1", o.MitigatedWrites)
	}
	// Critical path: rank 0 accumulated 2.1s, rank 1 only 0.4s.
	if o.FaultCriticalSeconds != 2.1 {
		t.Errorf("fault-critical = %g, want 2.1", o.FaultCriticalSeconds)
	}
	if o.Stats.QuarantinedTargets != 1 {
		t.Errorf("stats not threaded: %+v", o.Stats)
	}
	if o.ForwardProgress <= 0 || o.ForwardProgress >= 1 {
		t.Errorf("faulted forward progress = %g, want in (0, 1)", o.ForwardProgress)
	}

	// Dropping the mitigation (the storm pays full price) must strictly
	// lower forward progress: the FP metric rewards absorbed storms.
	unmit := events
	unmit[1].Mitigated = false
	unmit[1].Seconds = 2.1
	unmit[1].Retries = 3
	worse := Evaluate("run", nil, iosim.Fold(records), unmit, nil)
	if worse.ForwardProgress >= o.ForwardProgress {
		t.Errorf("unmitigated FP %g >= mitigated %g", worse.ForwardProgress, o.ForwardProgress)
	}
	if worse.RetryStormSeconds <= o.RetryStormSeconds {
		t.Errorf("unmitigated storm %g <= mitigated %g", worse.RetryStormSeconds, o.RetryStormSeconds)
	}
}

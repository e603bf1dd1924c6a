package faults

import (
	"math"
	"reflect"
	"testing"

	"amrproxyio/internal/iosim"
)

// rec builds a minimal untopologized ledger record.
func rec(rank, step int, start, dur float64) iosim.WriteRecord {
	return iosim.WriteRecord{
		Rank: rank, Path: "w", Bytes: 100,
		Start: start, Duration: dur,
		Labels: iosim.Labels{Step: step},
		Node:   -1, Target: -1,
	}
}

func TestYoungInterval(t *testing.T) {
	if got := YoungInterval(2, 100); math.Abs(got-20) > 1e-12 {
		t.Fatalf("YoungInterval(2, 100) = %g, want 20", got)
	}
	if YoungInterval(0, 100) != 0 || YoungInterval(2, 0) != 0 {
		t.Fatal("degenerate YoungInterval inputs must return 0")
	}
}

// TestAnalyzeInterruptTimeline: two checkpoints (ends 2 and 5), one
// interrupt before the first completes (loses everything since t=0, no
// checkpoint to read) and one after (loses the work since the last
// checkpoint and re-reads it).
func TestAnalyzeInterruptTimeline(t *testing.T) {
	records := []iosim.WriteRecord{
		rec(0, 0, 0, 2), // checkpoint 0 completes at t=2, wall 2
		rec(0, 1, 3, 2), // checkpoint 1 completes at t=5, wall 2
	}
	plan := &Plan{Events: []Event{
		{Kind: KindRankInterrupt, Start: 1, Rank: 0},
		{Kind: KindRankInterrupt, Start: 4, Rank: 0},
	}}
	r := Analyze(plan, iosim.Fold(records), nil)
	if r.Checkpoints != 2 || r.Interrupts != 2 {
		t.Fatalf("checkpoints/interrupts = %d/%d, want 2/2", r.Checkpoints, r.Interrupts)
	}
	if math.Abs(r.Makespan-5) > 1e-12 {
		t.Fatalf("makespan = %g, want 5", r.Makespan)
	}
	// t=1: no checkpoint yet, lose 1s. t=4: last checkpoint ended at 2,
	// lose 2s and re-read its 2s wall.
	if math.Abs(r.LostWorkSeconds-3) > 1e-12 {
		t.Fatalf("lost work = %g, want 3", r.LostWorkSeconds)
	}
	if math.Abs(r.RestartReadSeconds-2) > 1e-12 {
		t.Fatalf("restart read = %g, want 2", r.RestartReadSeconds)
	}
	if want := 5.0 / (5 + 3 + 2); math.Abs(r.ForwardProgress-want) > 1e-12 {
		t.Fatalf("forward progress = %g, want %g", r.ForwardProgress, want)
	}
}

// TestAnalyzeFaultEventAggregation: retries, failovers, and fault time
// roll up from the write-path event stream.
func TestAnalyzeFaultEventAggregation(t *testing.T) {
	events := []iosim.FaultEvent{
		{Kind: KindTargetOutage, Rank: 0, Seconds: 2.1, Retries: 3, FailoverTarget: 1},
		{Kind: KindNICDegrade, Rank: 1, Seconds: 0.5, FailoverTarget: -1},
	}
	r := Analyze(nil, iosim.Fold([]iosim.WriteRecord{rec(0, 0, 0, 1)}), events)
	if r.FaultWrites != 2 || r.Retries != 3 || r.Failovers != 1 {
		t.Fatalf("aggregates = %+v", r)
	}
	if math.Abs(r.FaultSeconds-2.6) > 1e-12 {
		t.Fatalf("fault seconds = %g, want 2.6", r.FaultSeconds)
	}
	if r.ForwardProgress != 1 {
		t.Fatalf("fault-free-timeline forward progress = %g, want 1", r.ForwardProgress)
	}
}

// TestAnalyzeMTBFDeterministic: MTBF draws come from the plan's seed, so
// the same inputs always analyze identically — and a long-MTBF plan on a
// short run draws interrupts with the documented exponential model.
func TestAnalyzeMTBFDeterministic(t *testing.T) {
	var records []iosim.WriteRecord
	for step := 0; step < 20; step++ {
		records = append(records, rec(0, step, float64(step), 0.9))
	}
	plan := &Plan{MTBFSeconds: 5, Seed: 11}
	a := Analyze(plan, iosim.Fold(records), nil)
	b := Analyze(plan, iosim.Fold(records), nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Analyze is not deterministic for a fixed seed")
	}
	if a.Interrupts == 0 {
		t.Fatal("MTBF 5s over a ~20s run drew no interrupts")
	}
	if a.YoungIntervalSeconds <= 0 {
		t.Fatal("MTBF plan reported no Young interval")
	}
	if Analyze(&Plan{MTBFSeconds: 5, Seed: 12}, iosim.Fold(records), nil).Interrupts == a.Interrupts &&
		reflect.DeepEqual(Analyze(&Plan{MTBFSeconds: 5, Seed: 12}, iosim.Fold(records), nil), a) {
		t.Fatal("different seeds produced identical analyses (seed is ignored)")
	}
}

// TestAnalyzeZeroInputs: nil plan, empty ledger.
func TestAnalyzeZeroInputs(t *testing.T) {
	r := Analyze(nil, iosim.Fold(nil), nil)
	if !reflect.DeepEqual(r, Resilience{}) {
		t.Fatalf("Analyze(nil, nil, nil) = %+v, want zero", r)
	}
}

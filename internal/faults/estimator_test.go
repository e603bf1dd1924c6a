package faults

import (
	"math"
	"math/rand"
	"testing"
)

func TestMTBFEstimatorCensoredMLE(t *testing.T) {
	var e MTBFEstimator
	if e.Estimate() != 0 {
		t.Error("zero-evidence estimate != 0")
	}
	if e.n != 0 {
		t.Error("fresh estimator counts interrupts")
	}
	e.Observe(2)
	e.Observe(5)
	e.Observe(9)
	if e.n != 3 {
		t.Errorf("count = %d, want 3", e.n)
	}
	// Horizon 9, 3 deaths: censored MLE is 3, not the mean closed gap.
	if got := e.Estimate(); got != 3 {
		t.Errorf("estimate = %g, want 3", got)
	}
	// Extending the censored horizon with no new deaths raises the mean.
	e.AdvanceTo(12)
	if got := e.Estimate(); got != 4 {
		t.Errorf("estimate after censoring = %g, want 4", got)
	}
	// AdvanceTo never rewinds.
	e.AdvanceTo(1)
	if got := e.Estimate(); got != 4 {
		t.Errorf("horizon rewound: estimate = %g", got)
	}
}

// TestInterruptsPrefixStable: the online engine replays the schedule at
// many horizons; a draw that appears at one horizon must appear, at the
// same time, at every later horizon, or the online estimate would drift
// against the post-hoc Analyze.
func TestInterruptsPrefixStable(t *testing.T) {
	p := &Plan{
		Events:      []Event{{Kind: KindRankInterrupt, Start: 7.5, Rank: 3}},
		MTBFSeconds: 2,
		Seed:        11,
	}
	long := p.Interrupts(100)
	if len(long) < 10 {
		t.Fatalf("only %d interrupts over 100s at 2s MTBF", len(long))
	}
	found := false
	for _, x := range long {
		if x == 7.5 {
			found = true
		}
	}
	if !found {
		t.Error("explicit rank-interrupt event missing from the schedule")
	}
	for _, h := range []float64{5, 20, 50, 99} {
		short := p.Interrupts(h)
		// Every drawn time <= h in the long schedule appears identically;
		// the explicit event is scheduled at every horizon.
		var wantPrefix []float64
		for _, x := range long {
			if x <= h || x == 7.5 {
				wantPrefix = append(wantPrefix, x)
			}
		}
		if len(short) != len(wantPrefix) {
			t.Fatalf("horizon %g: %d interrupts, want %d", h, len(short), len(wantPrefix))
		}
		for i := range short {
			if short[i] != wantPrefix[i] {
				t.Fatalf("horizon %g: interrupt %d = %g, want %g", h, i, short[i], wantPrefix[i])
			}
		}
	}
	// Explicit events survive a zero horizon (they are scheduled, not
	// drawn); MTBF draws need a positive horizon.
	zero := p.Interrupts(0)
	if len(zero) != 1 || zero[0] != 7.5 {
		t.Errorf("zero-horizon schedule = %v, want just the explicit event", zero)
	}
	if got := (*Plan)(nil).Interrupts(10); got != nil {
		t.Errorf("nil plan scheduled interrupts: %v", got)
	}
}

// TestInterruptsMatchAnalyze: Analyze's ObservedMTBFSeconds is the
// censored MLE over the same schedule the engine replays — the shared
// estimator is what makes the online and post-hoc numbers agree.
func TestInterruptsMatchAnalyze(t *testing.T) {
	p := &Plan{MTBFSeconds: 2, Seed: 5}
	horizon := 40.0
	var e MTBFEstimator
	for _, x := range p.Interrupts(horizon) {
		e.Observe(x)
	}
	e.AdvanceTo(horizon)
	want := horizon / float64(e.n)
	if math.Abs(e.Estimate()-want) > 1e-12 {
		t.Errorf("estimate = %g, want %g", e.Estimate(), want)
	}
}

// TestScheduleEstimatorMatchesReplay: the lazily drawn schedule's
// estimator at now equals the one fed every interrupt of Interrupts(now)
// at or before now, at horizons that rise, repeat and fall.
func TestScheduleEstimatorMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := &Plan{MTBFSeconds: 0.5 + 5*rng.Float64(), Seed: rng.Int63()}
		for i := rng.Intn(4); i > 0; i-- {
			p.Events = append(p.Events, Event{Kind: KindRankInterrupt, Start: 30 * rng.Float64()})
		}
		if rng.Intn(4) == 0 {
			p.MTBFSeconds = 0
		}
		s := p.Schedule()
		now := 0.0
		for step := 0; step < 40; step++ {
			switch rng.Intn(4) {
			case 0: // ask again at the same horizon
			case 1:
				now = 40 * rng.Float64() // may fall
			default:
				now += 3 * rng.Float64()
			}
			var want MTBFEstimator
			for _, x := range p.Interrupts(now) {
				if x <= now {
					want.Observe(x)
				}
			}
			want.AdvanceTo(now)
			if got := s.Estimator(now); got != want {
				t.Fatalf("trial %d, now %g: estimator %+v, replay %+v", trial, now, got, want)
			}
		}
	}
}

package resilience

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"
	"time"

	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
)

// rebuildOracle recomputes the engine's observation state from scratch
// on every call: it replays the interrupt schedule from t=0, sums the
// whole fault stream, and rebuilds the breakers from a chronologically
// sorted copy of it. Observe keeps running state instead, and must match
// this reference exactly after every observation.
type rebuildOracle struct {
	policy Policy
	plan   faults.Plan
	nprocs int

	est                             faults.MTBFEstimator
	lastNow, lastFaultMax, pressure float64
	open                            map[int]float64
	everOpened                      map[int]bool
	installed                       map[int]float64 // the last map installed
}

func newRebuildOracle(p Policy, plan faults.Plan, nprocs int) *rebuildOracle {
	return &rebuildOracle{policy: p, plan: plan, nprocs: nprocs, everOpened: map[int]bool{}}
}

func (o *rebuildOracle) observe(fs *iosim.FileSystem) {
	var now float64
	for r := 0; r < o.nprocs; r++ {
		if c := fs.Clock(r); c > now {
			now = c
		}
	}

	o.est = faults.MTBFEstimator{}
	for _, t := range o.plan.Interrupts(now) {
		if t <= now {
			o.est.Observe(t)
		}
	}
	o.est.AdvanceTo(now)

	events := fs.FaultEvents()
	perRank := map[int]float64{}
	var faultMax float64
	for _, ev := range events {
		perRank[ev.Rank] += ev.Seconds
		if perRank[ev.Rank] > faultMax {
			faultMax = perRank[ev.Rank]
		}
	}
	if now > o.lastNow {
		o.pressure = (faultMax - o.lastFaultMax) / (now - o.lastNow)
		o.lastFaultMax = faultMax
		o.lastNow = now
	}

	if !o.policy.Quarantine {
		return
	}
	sorted := make([]iosim.FaultEvent, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Rank < sorted[j].Rank
	})
	k := o.policy.quarantineThreshold()
	cooldown := o.policy.quarantineCooldown()
	counts := map[int]int{}
	open := map[int]float64{}
	for _, ev := range sorted {
		if ev.Kind != faults.KindTargetOutage || ev.Target < 0 || ev.Mitigated {
			continue
		}
		counts[ev.Target]++
		if counts[ev.Target] >= k {
			open[ev.Target] = ev.Start + cooldown
			counts[ev.Target] = 0
		}
	}
	o.open = open
	active := map[int]float64{}
	for tgt, until := range open {
		o.everOpened[tgt] = true
		if until > now {
			active[tgt] = until
		}
	}
	o.installed = active
}

func (o *rebuildOracle) avoidTargets() map[int]bool {
	avoid := map[int]bool{}
	for tgt, until := range o.open {
		if until > o.lastNow {
			avoid[tgt] = true
		}
	}
	if len(avoid) == 0 {
		return nil
	}
	return avoid
}

// recordingQuarantiner keeps the last map the engine installed and
// passes it on to the injector, so the breakers act on the run.
type recordingQuarantiner struct {
	next     iosim.Quarantiner
	last     map[int]float64
	installs int
}

func (r *recordingQuarantiner) Quarantine(until map[int]float64) {
	r.last = maps.Clone(until)
	r.installs++
	r.next.Quarantine(until)
}

// matchesRebuild reports how the engine's state differs from the
// oracle's, or "" when it matches exactly.
func matchesRebuild(eng *Engine, rec *recordingQuarantiner, o *rebuildOracle) string {
	switch {
	case eng.est.Estimate() != o.est.Estimate():
		return fmt.Sprintf("Estimate() = %v, rebuild %v", eng.est.Estimate(), o.est.Estimate())
	case eng.pressure != o.pressure || eng.lastNow != o.lastNow || eng.lastFaultMax != o.lastFaultMax:
		return fmt.Sprintf("pressure window (%v, %v, %v), rebuild (%v, %v, %v)",
			eng.pressure, eng.lastNow, eng.lastFaultMax, o.pressure, o.lastNow, o.lastFaultMax)
	case !maps.Equal(eng.open, o.open):
		return fmt.Sprintf("open = %v, rebuild %v", eng.open, o.open)
	case !maps.Equal(eng.AvoidTargets(), o.avoidTargets()):
		return fmt.Sprintf("AvoidTargets() = %v, rebuild %v", eng.AvoidTargets(), o.avoidTargets())
	case *eng.Stats() != Stats{QuarantinedTargets: len(o.everOpened), ObservedMTBFSeconds: o.est.Estimate()}:
		return fmt.Sprintf("Stats() = %+v, rebuild %d targets, MTBF %v", *eng.Stats(), len(o.everOpened), o.est.Estimate())
	case !maps.Equal(rec.last, o.installed):
		return fmt.Sprintf("installed %v, rebuild %v", rec.last, o.installed)
	}
	return ""
}

// observeCoverage counts what a scenario exercised.
type observeCoverage struct {
	idle       int // observations with no new fault events
	equalStart int // eligible events starting with another rank's on the same target
	late       int // eligible events starting before one already observed on their target
	trips      int // observations with a breaker open
	mitigated  int // events the installed breakers absorbed
	interrupts int // observations with a live MTBF estimate
}

// observeScenario drives one random faulted run through a real
// FileSystem: outages on random targets (some wildcard), NIC
// degradation, explicit interrupts and MTBF draws, a breaker threshold
// k, optional lockstep ranks that start writes together, and an
// optional lagging rank whose clock stays behind, so new events start
// before old ones. Between bursts it observes 0–3 times, so some calls
// see no new events, and after every observation it requires the
// incremental engine to match the rebuild oracle.
func observeScenario(t *testing.T, seed int64, k int, cov *observeCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nprocs := 1 + rng.Intn(4)
	targets := 2 + rng.Intn(3)

	plan := faults.Plan{RetryTimeout: 0.05 + rng.Float64()}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		ev := faults.Event{Kind: faults.KindTargetOutage, Target: rng.Intn(targets) - rng.Intn(2), Start: 20 * rng.Float64()}
		if rng.Intn(2) == 0 {
			ev.End = ev.Start + 1 + 30*rng.Float64()
		}
		plan.Events = append(plan.Events, ev)
	}
	if rng.Intn(3) == 0 {
		plan.Events = append(plan.Events, faults.Event{Kind: faults.KindNICDegrade, Node: -1, Start: 10 * rng.Float64(), Factor: 0.5})
	}
	for i := rng.Intn(3); i > 0; i-- {
		plan.Events = append(plan.Events, faults.Event{Kind: faults.KindRankInterrupt, Start: 40 * rng.Float64()})
	}
	if rng.Intn(2) == 0 {
		plan.MTBFSeconds, plan.Seed = 1+10*rng.Float64(), rng.Int63()
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	pol := Policy{Quarantine: true, QuarantineThreshold: k}
	if rng.Intn(2) == 0 {
		pol.QuarantineCooldown = 0.5 + 10*rng.Float64()
	}

	cfg := iosim.DefaultConfig()
	cfg.JitterSigma = 0
	cfg.Topology = iosim.Topology{Nodes: 1, Targets: targets}
	inj := plan.Injector(cfg.Topology)
	cfg.Faults = inj
	fs := iosim.New(cfg, "")
	rec := &recordingQuarantiner{next: inj}
	eng := New(&pol, plan, nprocs, rec)
	oracle := newRebuildOracle(pol, plan, nprocs)

	lockstep := rng.Intn(3) == 0
	lagger := -1
	if nprocs > 1 && rng.Intn(2) == 0 {
		lagger = nprocs - 1
	}
	var cursor []int
	var newEvents []iosim.FaultEvent
	maxStart := map[int]float64{}
	observe := func(where string) {
		eng.Observe(fs)
		oracle.observe(fs)
		if diff := matchesRebuild(eng, rec, oracle); diff != "" {
			t.Fatalf("seed %d, k %d, %s: %s", seed, k, where, diff)
		}
		newEvents, cursor = fs.AppendFaultEvents(newEvents[:0], cursor)
		if len(newEvents) == 0 {
			cov.idle++
		}
		starts := map[[2]float64]int{}
		for _, ev := range newEvents {
			if ev.Mitigated {
				cov.mitigated++
			}
			if ev.Kind != faults.KindTargetOutage || ev.Target < 0 || ev.Mitigated {
				continue
			}
			key := [2]float64{float64(ev.Target), ev.Start}
			if r, ok := starts[key]; ok && r != ev.Rank {
				cov.equalStart++
			}
			starts[key] = ev.Rank
			if m, ok := maxStart[ev.Target]; ok && ev.Start < m {
				cov.late++
			}
		}
		for _, ev := range newEvents {
			if ev.Kind == faults.KindTargetOutage && ev.Target >= 0 && !ev.Mitigated && ev.Start > maxStart[ev.Target] {
				maxStart[ev.Target] = ev.Start
			}
		}
		if len(eng.AvoidTargets()) > 0 {
			cov.trips++
		}
		if eng.est.Estimate() > 0 {
			cov.interrupts++
		}
	}

	bursts := 5 + rng.Intn(20)
	for b := 0; b < bursts; b++ {
		place := make([]int, nprocs)
		shared := rng.Intn(targets)
		for r := range place {
			place[r] = rng.Intn(targets)
			if lockstep {
				place[r] = shared
			}
		}
		if err := fs.Retarget(place); err != nil {
			t.Fatal(err)
		}
		fs.BeginBurst(nprocs)
		writes, size := 1+rng.Intn(2), int64(1+rng.Intn(1<<22))
		for r := 0; r < nprocs; r++ {
			if r == lagger && rng.Intn(3) != 0 {
				continue
			}
			n, sz := writes, size
			if !lockstep {
				n, sz = rng.Intn(3), int64(1+rng.Intn(1<<22))
			}
			for w := 0; w < n; w++ {
				if _, err := fs.WriteSize(r, fmt.Sprintf("b%d_r%d_w%d", b, r, w), sz, iosim.Labels{Step: b}); err != nil {
					t.Fatal(err)
				}
			}
		}
		fs.EndBurst()
		for i := rng.Intn(4); i > 0; i-- {
			observe(fmt.Sprintf("after burst %d", b))
		}
		if compute := 5 * rng.Float64(); !lockstep || rng.Intn(2) == 0 {
			for r := 0; r < nprocs; r++ {
				if r != lagger {
					fs.AdvanceClock(r, compute)
				}
			}
		}
	}
	observe("at the end")
}

// TestObserveMatchesRebuild: across random plans with every breaker
// threshold k in {1, 2, 3}, the incremental engine matches the rebuild
// oracle after every observation, and the plans between them exercise
// every case the running state has to get right.
func TestObserveMatchesRebuild(t *testing.T) {
	var cov observeCoverage
	for seed := int64(0); seed < 300; seed++ {
		observeScenario(t, seed, 1+int(seed%3), &cov)
	}
	t.Logf("coverage: %+v", cov)
	for name, n := range map[string]int{
		"observations without new events":            cov.idle,
		"equal starts across ranks":                  cov.equalStart,
		"events starting before one already counted": cov.late,
		"observations with an open breaker":          cov.trips,
		"mitigated events":                           cov.mitigated,
		"observations with an MTBF estimate":         cov.interrupts,
	} {
		if n == 0 {
			t.Errorf("no scenario exercised %s", name)
		}
	}
}

// FuzzObserveMatchesRebuild explores further plans and cadences than
// TestObserveMatchesRebuild's fixed seeds.
func FuzzObserveMatchesRebuild(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		for k := uint8(1); k <= 3; k++ {
			f.Add(seed, k)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, k uint8) {
		observeScenario(t, seed, 1+int(k%3), &observeCoverage{})
	})
}

// TestAppendFaultEventsCursorDesync: a cursor past a rank's events
// cannot have come from this filesystem, and reading it fails loudly.
func TestAppendFaultEventsCursorDesync(t *testing.T) {
	fs := faultedFS(t, outagePlan())
	fs.BeginBurst(2)
	if _, err := fs.WriteSize(0, "a", 1<<20, iosim.Labels{}); err != nil {
		t.Fatal(err)
	}
	fs.EndBurst()
	for _, cursor := range [][]int{{2}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cursor %v read without a panic", cursor)
				}
			}()
			fs.AppendFaultEvents(nil, cursor)
		}()
	}
}

// TestObserveAllocations: an observation with no new fault events
// allocates nothing, and neither its allocations nor its time grow with
// the length of the stream already read.
func TestObserveAllocations(t *testing.T) {
	perObserve := func(events int) (allocs float64, ns float64) {
		fs := faultedFS(t, outagePlan())
		eng := ForFileSystem(&Policy{Quarantine: true, QuarantineCooldown: 1}, fs, 2)
		for step := 0; len(fs.FaultEvents()) < events; step++ {
			fs.BeginBurst(2)
			for w := 0; w < 10; w++ {
				if _, err := fs.WriteSize(0, "f", 1<<10, iosim.Labels{Step: step}); err != nil {
					t.Fatal(err)
				}
			}
			fs.EndBurst()
			eng.Observe(fs)
		}
		if eng.Stats().QuarantinedTargets == 0 {
			t.Fatal("the stream tripped no breaker")
		}
		allocs = testing.AllocsPerRun(100, func() { eng.Observe(fs) })
		const reps = 2000
		best := time.Duration(1 << 62)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			for i := 0; i < reps; i++ {
				eng.Observe(fs)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return allocs, float64(best.Nanoseconds()) / reps
	}
	smallAllocs, smallNS := perObserve(100)
	largeAllocs, largeNS := perObserve(10000)
	t.Logf("no-new-event Observe: %.0f ns after 100 events, %.0f ns after 10,000", smallNS, largeNS)
	if smallAllocs != 0 || largeAllocs != 0 {
		t.Errorf("Observe with no new events allocates: %.1f after 100 events, %.1f after 10,000", smallAllocs, largeAllocs)
	}
	// Re-reading the stream would cost ~100x here; the bound leaves room
	// for timer noise on a shared host.
	if largeNS > 4*smallNS+500 {
		t.Errorf("Observe with no new events grew with the stream: %.0f ns after 100 events, %.0f ns after 10,000", smallNS, largeNS)
	}
}

package faults

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"amrproxyio/internal/iosim"
)

// linkedConfig is a jitter-free two-node, two-target topology with a
// round 100 B/s per-writer stream, so expected durations are exact.
func linkedConfig() iosim.Config {
	return iosim.Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 100,
		Topology:           iosim.Topology{Nodes: 2, RanksPerNode: 1, Targets: 2},
	}
}

// bbConfig is the storage_test.go round-number buffer: one rank owns the
// node — capacity 100 B, fill 10 B/s, drain 5 B/s — and the GPFS
// baseline never binds.
func bbConfig(storage string) iosim.Config {
	return iosim.Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 1e12,
		Storage:            storage,
		BurstBuffer: iosim.BurstBuffer{
			NodeCapacity:   100,
			NodeBandwidth:  10,
			DrainBandwidth: 5,
			Nodes:          1,
			RanksPerNode:   1,
		},
	}
}

func exactly(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %g, want %g", what, got, want)
	}
}

// TestTargetOutageRetryAndFailover: a write through an out target pays
// the retry storm (3 attempts: 3*0.5s timeouts + 0.1s linear backoff =
// 2.1s), fails over to the next healthy target, and transfers at the
// snapshot bandwidth; the sibling rank on the healthy target is
// untouched.
func TestTargetOutageRetryAndFailover(t *testing.T) {
	cfg := linkedConfig()
	plan := &Plan{Events: []Event{{Kind: KindTargetOutage, Start: 0, End: 100, Target: 0}}}
	cfg.Faults = plan.Injector(cfg.Topology)
	fs := iosim.New(cfg, "")
	fs.BeginBurst(2)
	d0, err := fs.WriteSize(0, "a", 100, iosim.Labels{Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := fs.WriteSize(1, "b", 100, iosim.Labels{Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	fs.EndBurst()
	exactly(t, "faulted write duration", d0, plan.retrySeconds()+1)
	exactly(t, "healthy write duration", d1, 1)

	led := fs.Ledger()
	r0 := led[0]
	if r0.Fault != KindTargetOutage || r0.Retries != 3 {
		t.Fatalf("faulted record = %+v, want target-outage with 3 retries", r0)
	}
	exactly(t, "record FaultSeconds", r0.FaultSeconds, plan.retrySeconds())
	if r0.Target != 1 {
		t.Fatalf("faulted record target = %d, want failover to 1", r0.Target)
	}
	if r1 := led[1]; r1.Fault != "" || r1.Retries != 0 || r1.Target != 1 {
		t.Fatalf("healthy record = %+v, want unfaulted on target 1", r1)
	}

	evs := fs.FaultEvents()
	if len(evs) != 1 {
		t.Fatalf("FaultEvents = %+v, want one outage event", evs)
	}
	ev := evs[0]
	if ev.Kind != KindTargetOutage || ev.Rank != 0 || ev.Node != 0 ||
		ev.Target != 0 || ev.FailoverTarget != 1 || ev.Retries != 3 {
		t.Fatalf("event = %+v", ev)
	}
	exactly(t, "event Seconds", ev.Seconds, plan.retrySeconds())
}

// TestTargetOutageNoHealthyTarget: a wildcard outage leaves nowhere to
// fail over, so the write pays the storm and keeps its target.
func TestTargetOutageNoHealthyTarget(t *testing.T) {
	cfg := linkedConfig()
	plan := &Plan{Events: []Event{{Kind: KindTargetOutage, Start: 0, Target: -1}}}
	cfg.Faults = plan.Injector(cfg.Topology)
	fs := iosim.New(cfg, "")
	fs.BeginBurst(1)
	if _, err := fs.WriteSize(0, "a", 100, iosim.Labels{Step: 0}); err != nil {
		t.Fatal(err)
	}
	if r := fs.Ledger()[0]; r.Target != 0 {
		t.Fatalf("record target = %d, want original 0 (no healthy failover)", r.Target)
	}
	if ev := fs.FaultEvents()[0]; ev.FailoverTarget != -1 {
		t.Fatalf("event failover = %d, want -1", ev.FailoverTarget)
	}
}

// TestNICDegrade: a half-bandwidth window doubles the degraded node's
// write durations and leaves the other node alone; composed with an
// outage, the retry storm is stretched too.
func TestNICDegrade(t *testing.T) {
	cfg := linkedConfig()
	plan := &Plan{Events: []Event{{Kind: KindNICDegrade, Start: 0, End: 100, Node: 0, Factor: 0.5}}}
	cfg.Faults = plan.Injector(cfg.Topology)
	fs := iosim.New(cfg, "")
	fs.BeginBurst(2)
	d0, _ := fs.WriteSize(0, "a", 100, iosim.Labels{Step: 0})
	d1, _ := fs.WriteSize(1, "b", 100, iosim.Labels{Step: 0})
	exactly(t, "degraded duration", d0, 2)
	exactly(t, "healthy duration", d1, 1)
	led := fs.Ledger()
	if led[0].Fault != KindNICDegrade {
		t.Fatalf("degraded record = %+v", led[0])
	}
	exactly(t, "degraded FaultSeconds", led[0].FaultSeconds, 1)

	// Outage + degrade on the same write: the whole retry+transfer
	// stretches by 1/Factor and the outage labels the record.
	cfg = linkedConfig()
	both := &Plan{Events: []Event{
		{Kind: KindTargetOutage, Start: 0, Target: 0},
		{Kind: KindNICDegrade, Start: 0, Node: 0, Factor: 0.5},
	}}
	cfg.Faults = both.Injector(cfg.Topology)
	fs = iosim.New(cfg, "")
	fs.BeginBurst(2)
	d0, _ = fs.WriteSize(0, "a", 100, iosim.Labels{Step: 0})
	exactly(t, "composed duration", d0, 2*(both.retrySeconds()+1))
	r := fs.Ledger()[0]
	if r.Fault != KindTargetOutage || r.Retries != 3 {
		t.Fatalf("composed record = %+v", r)
	}
	exactly(t, "composed FaultSeconds", r.FaultSeconds, 2*both.retrySeconds()+1)
}

// TestBBLossReplayAndFallback: losing the partition replays the buffered
// backlog through the drain once, then writes fall back to the backing
// tier until the window closes; a single-tier stack ignores the event.
func TestBBLossReplayAndFallback(t *testing.T) {
	cfg := bbConfig(iosim.StorageBB)
	plan := &Plan{Events: []Event{{Kind: KindBBLoss, Start: 3, Node: -1}}}
	cfg.Faults = plan.Injector(cfg.Topology)
	fs := iosim.New(cfg, "")
	fs.BeginBurst(1)

	// 40 B at fill 10/drain 5 before the window: 4s transfer, leaving
	// 40 - 5*4 = 20 B buffered at t=4.
	d, err := fs.WriteSize(0, "a", 40, iosim.Labels{Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	exactly(t, "pre-loss duration", d, 4)

	// At t=4 the partition is lost: 20 B replay at the 5 B/s drain
	// (4s), then 10 B at the backing tier's 1e12 B/s (~0s).
	d, err = fs.WriteSize(0, "b", 10, iosim.Labels{Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	exactly(t, "replay duration", d, 4+10/1e12)
	led := fs.Ledger()
	r := led[1]
	if r.Fault != KindBBLoss || r.Tier != iosim.TierGPFS {
		t.Fatalf("lost-partition record = %+v", r)
	}
	exactly(t, "replay FaultSeconds", r.FaultSeconds, 4)

	// The backlog is only lost once: the next write just writes through.
	d, err = fs.WriteSize(0, "c", 10, iosim.Labels{Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	exactly(t, "fallback duration", d, 10/1e12)

	// Single-tier stacks have no buffer to lose: the event is inert and
	// the ledger matches a fault-free run exactly.
	for _, storage := range []string{iosim.StorageDefault, iosim.StorageGPFS} {
		base := linkedConfig()
		base.Storage = storage
		faulted := base
		faulted.Faults = plan.Injector(faulted.Topology)
		if !reflect.DeepEqual(driveOps(t, base), driveOps(t, faulted)) {
			t.Fatalf("bb-loss perturbed the %q single-tier ledger", storage)
		}
	}
}

// driveOps mirrors the storage_test.go property-pin harness: a seeded
// random schedule of bursts, writes, mkdirs, and compute gaps across 24
// ranks.
func driveOps(t *testing.T, cfg iosim.Config) []iosim.WriteRecord {
	t.Helper()
	fs := iosim.New(cfg, "")
	rng := rand.New(rand.NewSource(99))
	writers := 0
	for i := 0; i < 400; i++ {
		switch {
		case rng.Intn(10) == 0:
			writers = 1 + rng.Intn(48)
			fs.BeginBurst(writers)
			continue
		case writers > 0 && rng.Intn(12) == 0:
			writers = 0
			fs.EndBurst()
			continue
		case rng.Intn(16) == 0:
			fs.AdvanceClock(rng.Intn(16), rng.Float64())
			continue
		}
		rank := rng.Intn(24)
		path := "plt/Cell_D_" + string(rune('a'+rng.Intn(26)))
		if rng.Intn(8) == 0 {
			if err := fs.Mkdir(rank, path, iosim.Labels{Step: i % 6}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := fs.WriteSize(rank, path, int64(rng.Intn(1<<21)), iosim.Labels{Step: i % 6}); err != nil {
			t.Fatal(err)
		}
	}
	return fs.Ledger()
}

// pinConfig builds the realistic (jittered, topology-enabled) config the
// zero-plan pins run each storage stack under.
func pinConfig(storage string) iosim.Config {
	cfg := iosim.DefaultConfig()
	cfg.Storage = storage
	cfg.Topology = iosim.Topology{
		Nodes: 4, RanksPerNode: 6,
		NICBandwidth: 25e9, Targets: 3, TargetBandwidth: 16e9,
	}
	if storage == iosim.StorageBB || storage == iosim.StorageTiered {
		cfg.BurstBuffer = iosim.BurstBuffer{
			NodeCapacity:   1 << 22,
			NodeBandwidth:  2.1e9,
			DrainBandwidth: 1e9,
			Nodes:          4,
		}
	}
	return cfg
}

// TestZeroPlanByteIdentical is the acceptance pin: an absent plan (nil
// injector) and an installed injector whose schedule never fires both
// produce ledgers, burst statistics, and characterizations byte-identical
// to the fault-free stack — for all four storage selections.
func TestZeroPlanByteIdentical(t *testing.T) {
	// A non-zero plan (so an injector IS installed) whose windows start
	// beyond any simulated clock this workload reaches.
	dormant := &Plan{Events: []Event{
		{Kind: KindTargetOutage, Start: 1e12, Target: -1},
		{Kind: KindNICDegrade, Start: 1e12, Node: -1, Factor: 0.5},
		{Kind: KindBBLoss, Start: 1e12, Node: -1},
		{Kind: KindRankInterrupt, Start: 1e12, Rank: 0},
	}}
	for _, storage := range []string{
		iosim.StorageDefault, iosim.StorageGPFS, iosim.StorageBB, iosim.StorageTiered,
	} {
		t.Run("storage="+storage, func(t *testing.T) {
			base := driveOps(t, pinConfig(storage))

			cfg := pinConfig(storage)
			if inj := (*Plan)(nil).Injector(cfg.Topology); inj != nil {
				t.Fatal("nil plan built an injector")
			}
			absent := driveOps(t, cfg)
			if !reflect.DeepEqual(base, absent) {
				t.Fatal("absent-plan ledger differs from fault-free baseline")
			}

			cfg = pinConfig(storage)
			cfg.Faults = dormant.Injector(cfg.Topology)
			if cfg.Faults == nil {
				t.Fatal("dormant plan built no injector")
			}
			pinned := driveOps(t, cfg)
			if !reflect.DeepEqual(base, pinned) {
				t.Fatal("dormant-injector ledger differs from fault-free baseline")
			}
			// Bursts/Profile reduce per-rank maps, so float
			// sums carry iteration-order round-off (the storage pins'
			// approx() caveat); everything else must match exactly.
			if !approxDeepEqual(reflect.ValueOf(iosim.Fold(base).Bursts()), reflect.ValueOf(iosim.Fold(pinned).Bursts())) {
				t.Fatal("dormant-injector bursts differ")
			}
			if !approxDeepEqual(reflect.ValueOf(iosim.Fold(base).Profile()), reflect.ValueOf(iosim.Fold(pinned).Profile())) {
				t.Fatal("dormant-injector Characterization differs")
			}
		})
	}
}

// approxDeepEqual is reflect.DeepEqual with float64 leaves compared to
// relative 1e-9 — the tolerance the storage pins use for sums reduced
// over map iteration order.
func approxDeepEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64, reflect.Float32:
		x, y := a.Float(), b.Float()
		return math.Abs(x-y) <= 1e-9*(1+math.Abs(x))
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !approxDeepEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !approxDeepEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			av, bv := a.MapIndex(k), b.MapIndex(k)
			if !bv.IsValid() || !approxDeepEqual(av, bv) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

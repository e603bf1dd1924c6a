package iosim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
)

// burstOp is one call of a burst: a directory, a payload write or a
// size-only write, by one rank.
type burstOp struct {
	rank  int
	path  string
	bytes int64
	dir   bool
	data  bool
}

// orderTestBurst is an 8-rank burst in each rank's program order: rank 0
// opens with the metadata (a directory and a small header), then every
// rank writes three files of rank-dependent size, the middle one with a
// payload. The sizes are large enough to fill the burst-buffer
// partitions of orderTestConfig and so stall.
func orderTestBurst() [][]burstOp {
	const ranks = 8
	ops := make([][]burstOp, ranks)
	ops[0] = append(ops[0],
		burstOp{rank: 0, path: "plt00010", dir: true},
		burstOp{rank: 0, path: "plt00010/Header", bytes: 512, data: true})
	for r := 0; r < ranks; r++ {
		for f := 0; f < 3; f++ {
			ops[r] = append(ops[r], burstOp{
				rank:  r,
				path:  fmt.Sprintf("plt00010/Level_%d/Cell_D_%05d", f, r),
				bytes: int64(400_000 + 150_000*((r*7+f*3)%5)),
				data:  f == 1,
			})
		}
	}
	return ops
}

// orderTestConfig prices an 8-rank burst on two nodes and three targets
// with jitter on, through the given stack and aggregation spec, with a
// target outage, a burst-buffer loss and any extra events injected.
func orderTestConfig(t *testing.T, storage, agg string, extra ...faults.Event) iosim.Config {
	t.Helper()
	cfg := iosim.DefaultConfig()
	cfg.JitterSigma = 0.3
	cfg.Seed = 11
	cfg.Storage = storage
	cfg.Topology = iosim.Topology{Nodes: 2, RanksPerNode: 4, Targets: 3, TargetBandwidth: 3e9}
	cfg.BurstBuffer = iosim.BurstBuffer{
		NodeCapacity:   4e6,
		NodeBandwidth:  2e9,
		DrainBandwidth: 1e8,
		Nodes:          2,
	}
	if agg != "" {
		spec, err := iosim.ParseAggregation(agg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Aggregation = spec
	}
	plan := &faults.Plan{Events: append([]faults.Event{
		{Kind: faults.KindTargetOutage, Start: 0, End: 50, Target: 0},
		{Kind: faults.KindBBLoss, Start: 0.001, End: 100, Node: 1},
	}, extra...)}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan.Injector(cfg.Topology)
	cfg.RetainLedger = iosim.RetainAll
	return cfg
}

// feedRecorder is a LedgerConsumer that keeps the stream it was fed.
type feedRecorder struct{ recs []iosim.WriteRecord }

func (f *feedRecorder) Consume(r iosim.WriteRecord) { f.recs = append(f.recs, r) }
func (f *feedRecorder) Flush()                      {}

// burstResult is everything a writer can observe of a burst.
type burstResult struct {
	ledger []iosim.WriteRecord
	feed   []iosim.WriteRecord
	faults []iosim.FaultEvent
}

// runBurstInOrder issues ops once in each of bursts consecutive bursts
// (steps 10, 11, ...), taking each call from the rank order yields next;
// each rank's own calls keep their program order. Between bursts every
// rank computes for a rank-dependent AdvanceClock gap.
func runBurstInOrder(t *testing.T, cfg iosim.Config, ops [][]burstOp, order []int, bursts int) burstResult {
	t.Helper()
	fs := iosim.New(cfg, "")
	rec := &feedRecorder{}
	fs.Attach(rec)
	for b := 0; b < bursts; b++ {
		if b > 0 {
			for r := range ops {
				fs.AdvanceClock(r, 0.0005*float64(1+r%3))
			}
		}
		labels := iosim.Labels{Step: 10 + b}
		next := make([]int, len(ops))
		fs.BeginBurst(len(ops))
		for _, r := range order {
			op := ops[r][next[r]]
			next[r]++
			var err error
			switch {
			case op.dir:
				err = fs.Mkdir(op.rank, op.path, labels)
			case op.data:
				_, err = fs.Write(op.rank, op.path, make([]byte, op.bytes), labels)
			default:
				_, err = fs.WriteSize(op.rank, op.path, op.bytes, labels)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		fs.EndBurst()
	}
	fs.FlushConsumers()
	return burstResult{ledger: fs.Ledger(), feed: rec.recs, faults: fs.FaultEvents()}
}

// rankOrders returns the rank-major call order of ops, its reverse by
// rank, and a seeded interleaving, each keeping every rank's own calls in
// program order.
func rankOrders(ops [][]burstOp) (rankMajor, reversed, shuffled []int) {
	for r := range ops {
		for range ops[r] {
			rankMajor = append(rankMajor, r)
		}
	}
	for r := len(ops) - 1; r >= 0; r-- {
		for range ops[r] {
			reversed = append(reversed, r)
		}
	}
	// A seeded interleaving: draw the rank of each next call from the
	// multiset of remaining calls.
	shuffled = append(shuffled, rankMajor...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	return rankMajor, reversed, shuffled
}

// TestBurstLedgerIndependentOfRankOrder pins the contract the plotfile
// and MACSio writers rely on when they price a burst rank by rank on one
// goroutine: within a burst, the order in which ranks' calls arrive —
// rank-major, reversed, or any interleaving that keeps each rank's own
// program order — changes neither the ledger, nor the consumer feed, nor
// the fault events. It holds on every storage stack, with the topology,
// two-phase aggregation, fault injection and jitter all on.
func TestBurstLedgerIndependentOfRankOrder(t *testing.T) {
	ops := orderTestBurst()
	rankMajor, reversed, shuffled := rankOrders(ops)

	for _, storage := range []string{iosim.StorageDefault, iosim.StorageGPFS, iosim.StorageBB, iosim.StorageTiered} {
		for _, agg := range []string{"", "1/node+sif"} {
			t.Run(fmt.Sprintf("storage=%q/agg=%q", storage, agg), func(t *testing.T) {
				cfg := orderTestConfig(t, storage, agg)
				want := runBurstInOrder(t, cfg, ops, rankMajor, 1)
				kinds := map[string]bool{}
				for _, ev := range want.faults {
					kinds[ev.Kind] = true
				}
				stalled := false
				for _, r := range want.ledger {
					stalled = stalled || r.StallSeconds > 0
				}
				bb := storage == iosim.StorageBB || storage == iosim.StorageTiered
				if !kinds[faults.KindTargetOutage] || bb && (!kinds[faults.KindBBLoss] || !stalled) {
					t.Fatalf("burst misses a mechanism: fault kinds %v, stalled %v", kinds, stalled)
				}
				for name, order := range map[string][]int{"reversed": reversed, "shuffled": shuffled} {
					got := runBurstInOrder(t, orderTestConfig(t, storage, agg), ops, order, 1)
					if !reflect.DeepEqual(got.ledger, want.ledger) {
						t.Errorf("%s: Ledger() differs from rank-major", name)
					}
					if !reflect.DeepEqual(got.feed, want.feed) {
						t.Errorf("%s: consumer feed differs from rank-major", name)
					}
					if !reflect.DeepEqual(got.faults, want.faults) {
						t.Errorf("%s: FaultEvents() differ from rank-major", name)
					}
				}
			})
		}
	}
}

// TestBurstSequenceIndependentOfRankOrder extends the rank-order contract
// across bursts: three bursts with compute gaps between them, so
// burst-buffer occupancy and async staging carry over and drain between
// bursts, with a NIC degradation injected beside the outage and buffer
// loss, under async staging and a narrow gather plane. Reversed and
// shuffled call orders within every burst must reproduce the rank-major
// ledger, consumer feed and fault events exactly.
func TestBurstSequenceIndependentOfRankOrder(t *testing.T) {
	const bursts = 3
	ops := orderTestBurst()
	rankMajor, reversed, shuffled := rankOrders(ops)
	nic := faults.Event{Kind: faults.KindNICDegrade, Start: 0, End: 100, Node: 1, Factor: 0.5}
	aggs := []iosim.AggregationSpec{
		{Aggregators: "1/node", Async: true, StagingCapacity: 2e6},
		{Aggregators: "2/node", GatherBandwidth: 1e9},
	}
	for _, storage := range []string{iosim.StorageDefault, iosim.StorageGPFS, iosim.StorageBB, iosim.StorageTiered} {
		for _, spec := range aggs {
			t.Run(fmt.Sprintf("storage=%q/agg=%s", storage, spec.Token()), func(t *testing.T) {
				config := func() iosim.Config {
					cfg := orderTestConfig(t, storage, "", nic)
					cfg.Aggregation = spec
					return cfg
				}
				want := runBurstInOrder(t, config(), ops, rankMajor, bursts)
				kinds := map[string]bool{}
				for _, ev := range want.faults {
					kinds[ev.Kind] = true
				}
				tiers := map[iosim.Tier]bool{}
				for _, r := range want.ledger {
					tiers[r.Tier] = true
				}
				bb := storage == iosim.StorageBB || storage == iosim.StorageTiered
				staged := spec.Async && !bb
				switch {
				case !kinds[faults.KindTargetOutage] || !kinds[faults.KindNICDegrade]:
					t.Fatalf("bursts miss a fault kind: %v", kinds)
				case bb && (!kinds[faults.KindBBLoss] || !tiers[iosim.TierBB]):
					t.Fatalf("burst-buffer bursts miss a mechanism: fault kinds %v, tiers %v", kinds, tiers)
				case staged && !tiers[iosim.TierStage]:
					t.Fatalf("async bursts never staged: tiers %v", tiers)
				}
				if n := len(want.feed); n != bursts*len(rankMajor) {
					t.Fatalf("consumer feed has %d records, want %d", n, bursts*len(rankMajor))
				}
				for name, order := range map[string][]int{"reversed": reversed, "shuffled": shuffled} {
					got := runBurstInOrder(t, config(), ops, order, bursts)
					if !reflect.DeepEqual(got.ledger, want.ledger) {
						t.Errorf("%s: Ledger() differs from rank-major", name)
					}
					if !reflect.DeepEqual(got.feed, want.feed) {
						t.Errorf("%s: consumer feed differs from rank-major", name)
					}
					if !reflect.DeepEqual(got.faults, want.faults) {
						t.Errorf("%s: FaultEvents() differ from rank-major", name)
					}
				}
			})
		}
	}
}

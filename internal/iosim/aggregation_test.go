package iosim

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestAggregationAllRanksByteIdenticalToDirect is the acceptance pin for
// the two-phase layer: the "all" spec (one aggregator per rank, zero
// gather, MIF layout) produces a ledger, burst statistics,
// characterization, and rendering byte-identical to the direct-write
// path, for all four storage stacks, with and without a topology (the
// PR-5/PR-7 zero-config pin idiom).
func TestAggregationAllRanksByteIdenticalToDirect(t *testing.T) {
	stacks := []string{StorageDefault, StorageGPFS, StorageBB, StorageTiered}
	for _, storage := range stacks {
		for _, topo := range []Topology{
			{},
			{Nodes: 3, NICBandwidth: 5e9, Targets: 4, TargetBandwidth: 2e9},
		} {
			cfg := DefaultConfig()
			cfg.JitterSigma = 0.2 // jitter on: the pin must hold bit-for-bit with it
			cfg.Topology = topo
			cfg.Storage = storage
			// A small buffer so the bb stacks exercise fills, stalls,
			// and drains on both sides of the comparison.
			cfg.BurstBuffer = BurstBuffer{
				NodeCapacity:   2e6,
				NodeBandwidth:  5e8,
				DrainBandwidth: 1e8,
				Nodes:          3,
			}

			direct := cfg
			agged := cfg
			agged.Aggregation = AggregationSpec{Aggregators: AggregatorsAll}

			a := driveStorageOps(t, direct)
			b := driveStorageOps(t, agged)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("storage %q topology %+v: all-ranks aggregation ledger differs from direct", storage, topo)
			}
			sa, sb := BurstStats(a), BurstStats(b)
			if len(sa) != len(sb) {
				t.Fatalf("storage %q topology %+v: burst counts differ", storage, topo)
			}
			for i := range sa {
				x, y := sa[i], sb[i]
				approx(t, "MeanSeconds", &x.MeanSeconds, &y.MeanSeconds)
				approx(t, "MeanLinkSeconds", &x.MeanLinkSeconds, &y.MeanLinkSeconds)
				approx(t, "LinkSkew", &x.LinkSkew, &y.LinkSkew)
				approx(t, "NodeSkew", &x.NodeSkew, &y.NodeSkew)
				if x != y {
					t.Fatalf("storage %q topology %+v: burst %d differs:\n%+v\n%+v", storage, topo, i, x, y)
				}
			}
			ca, cb := Characterize(a), Characterize(b)
			approx(t, "RankImbalance", &ca.RankImbalance, &cb.RankImbalance)
			approx(t, "NodeImbalance", &ca.NodeImbalance, &cb.NodeImbalance)
			approx(t, "LinkImbalance", &ca.LinkImbalance, &cb.LinkImbalance)
			if !reflect.DeepEqual(ca, cb) {
				t.Fatalf("storage %q topology %+v: characterizations differ:\n%+v\n%+v", storage, topo, ca, cb)
			}
			if ra, rb := ca.Render(), cb.Render(); ra != rb {
				t.Fatalf("storage %q topology %+v: renders differ:\n%s\n%s", storage, topo, ra, rb)
			}
			// The identity spec must not leak aggregation artifacts.
			for _, r := range b {
				if r.GatherSeconds != 0 {
					t.Fatalf("all-ranks record carries gather time: %+v", r)
				}
			}
		}
	}
}

// TestAggregationTwoPhaseSemantics walks the 1/node collective through
// hand-computed numbers: members pay gather and no open, their bytes fan
// into the aggregator's target, aggregators pay the layout-scaled open,
// and the write phase moves at the aggregator-set contention snapshot
// time-shared across the group.
func TestAggregationTwoPhaseSemantics(t *testing.T) {
	cfg := Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 30,
		OpenLatency:        2.0,
		Topology: Topology{
			Nodes: 2, RanksPerNode: 2,
			Targets: 2, TargetBandwidth: 40,
		},
		Aggregation: AggregationSpec{
			Aggregators:     "1/node",
			GatherBandwidth: 8,
		},
	}
	fs := New(cfg, "")
	fs.BeginBurst(4)
	// Aggregators 0 and 2 both round-robin onto target 0: the
	// aggregator-set fan-in is 2 on target 0 (share 40/2 = 20), the
	// per-writer cap 30 doesn't bind, and each 2-rank group time-shares
	// its aggregator's 20 B/s stream at 10 B/s.
	durs := make([]float64, 4)
	for r := 0; r < 4; r++ {
		d, err := fs.WriteSize(r, "plt/Cell_D", 80, Labels{})
		if err != nil {
			t.Fatal(err)
		}
		durs[r] = d
	}
	fs.EndBurst()

	// Aggregator: open 2.0 * (A/n = 2/4) + write 80/10 = 1 + 8.
	if math.Abs(durs[0]-9) > 1e-12 || math.Abs(durs[2]-9) > 1e-12 {
		t.Errorf("aggregator durations = %g, %g, want 9", durs[0], durs[2])
	}
	// Member: gather 80/8 + write 80/10, no open.
	if math.Abs(durs[1]-18) > 1e-12 || math.Abs(durs[3]-18) > 1e-12 {
		t.Errorf("member durations = %g, %g, want 18", durs[1], durs[3])
	}

	rec := fs.Ledger()
	if len(rec) != 4 {
		t.Fatalf("ledger len = %d", len(rec))
	}
	for _, r := range rec {
		if r.Target != 0 {
			t.Errorf("rank %d fanned into target %d, want the aggregator's target 0", r.Rank, r.Target)
		}
	}
	if rec[0].OpenSeconds != 1 || rec[0].GatherSeconds != 0 {
		t.Errorf("aggregator record = %+v, want open 1 gather 0", rec[0])
	}
	if rec[1].OpenSeconds != 0 || math.Abs(rec[1].GatherSeconds-10) > 1e-12 {
		t.Errorf("member record = %+v, want open 0 gather 10", rec[1])
	}

	// Fan-in before/after: 4 ranks funnel through 2 writers on 1 target.
	writers := map[int]bool{}
	targets := map[int]bool{}
	for _, r := range rec {
		if r.OpenSeconds > 0 {
			writers[r.Rank] = true
		}
		targets[r.Target] = true
	}
	if len(writers) != 2 || len(targets) != 1 {
		t.Errorf("writers %d targets %d, want 2 writers on 1 target", len(writers), len(targets))
	}
}

// TestAggregationLayoutOpens pins the metadata model: MIF scales opens
// with the aggregator count, SIF adds lock negotiation per peer, and the
// two coincide for a single aggregator.
func TestAggregationLayoutOpens(t *testing.T) {
	base := Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 1e12,
		OpenLatency:        1.0,
	}
	open := func(spec AggregationSpec, n int) float64 {
		cfg := base
		cfg.Aggregation = spec
		fs := New(cfg, "")
		fs.BeginBurst(n)
		defer fs.EndBurst()
		if _, err := fs.WriteSize(0, "f", 0, Labels{}); err != nil {
			t.Fatal(err)
		}
		return fs.Ledger()[0].OpenSeconds
	}
	// Without a topology "K/node" means K aggregators total.
	mif := open(AggregationSpec{Aggregators: "2/node"}, 8)
	sif := open(AggregationSpec{Aggregators: "2/node", Layout: LayoutSIF}, 8)
	if math.Abs(mif-2.0/8) > 1e-12 {
		t.Errorf("MIF open scale = %g, want A/n = 0.25", mif)
	}
	if want := (1 + sifLockFactor*1) / 8; math.Abs(sif-want) > 1e-12 {
		t.Errorf("SIF open scale = %g, want %g", sif, want)
	}
	if sif <= mif {
		t.Errorf("SIF (%g) must cost more opens than MIF (%g) for A > 1", sif, mif)
	}
	mif1 := open(AggregationSpec{Aggregators: "1/node"}, 8)
	sif1 := open(AggregationSpec{Aggregators: "1/node", Layout: LayoutSIF}, 8)
	if math.Abs(mif1-sif1) > 1e-12 {
		t.Errorf("single aggregator: MIF %g != SIF %g, one file one writer must price identically", mif1, sif1)
	}
}

// TestAggregationAsyncStaging walks the opt-in staging mode through the
// fluid fill/drain model: aggregated data is absorbed at gather-plane
// speed into the staging buffer (TierStage), drains at the aggregator-set
// write bandwidth under the compute gap, and write-throughs to storage
// (TierGPFS) once the buffer fills.
func TestAggregationAsyncStaging(t *testing.T) {
	cfg := Config{
		AggregateBandwidth: 1e12,
		PerWriterBandwidth: 2,
		Aggregation: AggregationSpec{
			Aggregators:     "1/node",
			Async:           true,
			GatherBandwidth: 10,
			StagingCapacity: 40,
		},
	}
	fs := New(cfg, "")
	fs.BeginBurst(2)
	// Rank 0 aggregates for both ranks: group 2, absorb 10/2 = 5 B/s,
	// staging share 40/2 = 20 B, drain at the write bandwidth
	// min(2, ...)/2 = 1 B/s.
	// 10 B: absorbed in 2s (net growth 10*4/5 = 8 B), drain tail 8s.
	d, err := fs.WriteSize(0, "a", 10, Labels{Step: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2) > 1e-12 {
		t.Errorf("absorbed write duration = %g, want 2 (sync would be 10)", d)
	}
	fs.EndBurst()

	// The 8 B backlog drains through the 8s compute gap.
	fs.AdvanceClock(0, 8)
	fs.BeginBurst(2)
	// 200 B from empty: 5s fills the 20 B share (moving 25 B), the
	// remaining 175 B write through at the 1 B/s drain -> 180s, 140s of
	// stall over the 40s full-speed absorb.
	d, err = fs.WriteSize(0, "b", 200, Labels{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-180) > 1e-12 {
		t.Errorf("overflowing write duration = %g, want 180", d)
	}
	fs.EndBurst()

	rec := fs.Ledger()
	if rec[0].Tier != TierStage || rec[0].StallSeconds != 0 {
		t.Errorf("absorbed record = %+v, want TierStage no stall", rec[0])
	}
	if math.Abs(rec[0].DrainSeconds-8) > 1e-12 || math.Abs(rec[0].BBFill-0.4) > 1e-12 {
		t.Errorf("absorbed record = %+v, want drain 8 fill 0.4", rec[0])
	}
	if rec[1].Tier != TierGPFS || math.Abs(rec[1].StallSeconds-140) > 1e-12 {
		t.Errorf("overflowing record = %+v, want TierGPFS stall 140", rec[1])
	}
}

// TestAggregationValidation is the table-driven rejection suite: every
// malformed spec fails Validate with an actionable message (the PR-6
// fault-plan rejection idiom).
func TestAggregationValidation(t *testing.T) {
	cases := []struct {
		name string
		spec AggregationSpec
		want string
	}{
		{"empty", AggregationSpec{}, "needs aggregators"},
		{"zero per node", AggregationSpec{Aggregators: "0/node"}, "leaves no rank to write"},
		{"negative per node", AggregationSpec{Aggregators: "-3/node"}, "leaves no rank to write"},
		{"non-integer count", AggregationSpec{Aggregators: "x/node"}, "not an integer count"},
		{"unknown placement", AggregationSpec{Aggregators: "node"}, "unknown aggregators"},
		{"unknown layout", AggregationSpec{Aggregators: AggregatorsAll, Layout: "hdf5"}, "unknown aggregation layout"},
		{"negative gather bw", AggregationSpec{Aggregators: AggregatorsAll, GatherBandwidth: -1}, "gather bandwidth"},
		{"negative staging", AggregationSpec{Aggregators: AggregatorsAll, StagingCapacity: -1}, "staging capacity"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	for _, good := range []AggregationSpec{
		{Aggregators: AggregatorsAll},
		{Aggregators: "1/node", Layout: LayoutSIF},
		{Aggregators: "4/node", Async: true, GatherBandwidth: 1e9, StagingCapacity: 1e9},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", good, err)
		}
	}
}

// TestAggregationJSONRejectsUnknownFields pins the DisallowUnknownFields
// contract: a typo in a case file fails loudly instead of silently
// running the direct pattern.
func TestAggregationJSONRejectsUnknownFields(t *testing.T) {
	var spec AggregationSpec
	if err := json.Unmarshal([]byte(`{"aggregators":"1/node","writers":3}`), &spec); err == nil {
		t.Fatal("unknown field accepted")
	} else if !strings.Contains(err.Error(), "writers") {
		t.Fatalf("error %q does not name the unknown field", err)
	}
	if err := json.Unmarshal([]byte(`{"aggregators":}`), &spec); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if err := json.Unmarshal([]byte(`{"aggregators":"2/node","layout":"sif","async":true}`), &spec); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if spec.Aggregators != "2/node" || spec.Layout != LayoutSIF || !spec.Async {
		t.Fatalf("decoded spec = %+v", spec)
	}
}

// TestParseAggregation covers the CLI spec grammar.
func TestParseAggregation(t *testing.T) {
	spec, err := ParseAggregation("1/node+sif+async")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Aggregators != "1/node" || spec.Layout != LayoutSIF || !spec.Async {
		t.Fatalf("parsed spec = %+v", spec)
	}
	if spec.Token() != "1per-node-sif-async" {
		t.Fatalf("token = %q", spec.Token())
	}
	for _, bad := range []string{"", "bogus", "0/node", "all+hdf5", "1/node+fast"} {
		if _, err := ParseAggregation(bad); err == nil {
			t.Errorf("ParseAggregation accepted %q", bad)
		}
	}
}

// TestAggregatorMap pins the rank→aggregator assignment the remap layer
// folds loads through.
func TestAggregatorMap(t *testing.T) {
	topo := Topology{Nodes: 2, RanksPerNode: 2}
	if m := (AggregationSpec{}).AggregatorMap(topo, 4); m != nil {
		t.Fatalf("disabled spec produced a map: %v", m)
	}
	if m := (AggregationSpec{Aggregators: AggregatorsAll}).AggregatorMap(topo, 4); m != nil {
		t.Fatalf("all-ranks identity produced a map: %v", m)
	}
	m := AggregationSpec{Aggregators: "1/node"}.AggregatorMap(topo, 4)
	if !reflect.DeepEqual(m, []int{0, 0, 2, 2}) {
		t.Fatalf("1/node map = %v, want [0 0 2 2]", m)
	}
	// 2/node on a 3-rank tail block: the lone tail rank aggregates for
	// itself.
	m = AggregationSpec{Aggregators: "2/node", GatherBandwidth: 1}.AggregatorMap(Topology{Nodes: 2, RanksPerNode: 4}, 7)
	if !reflect.DeepEqual(m, []int{0, 1, 0, 1, 4, 5, 4}) {
		t.Fatalf("2/node map = %v, want [0 1 0 1 4 5 4]", m)
	}
}

// BenchmarkAggregatedWrite prices one N-rank burst under three
// aggregation specs at two paper scales, next to BenchmarkStorageWrite
// in CI's bench smoke, so the cost of the two-phase plan and the
// aggregator-set snapshot stays visible.
func BenchmarkAggregatedWrite(b *testing.B) {
	for _, agg := range []string{AggregatorsAll, "2/node", "1/node"} {
		for _, ranks := range []int{64, 512} {
			b.Run(fmt.Sprintf("%s/%dranks", strings.ReplaceAll(agg, "/", "-"), ranks), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Topology = TopologyForCase(ranks/4, ranks)
				cfg.Aggregation = AggregationSpec{Aggregators: agg}
				cfg.RetainLedger = RetainNone // bound ledger memory on long -benchtime runs
				fs := New(cfg, "")
				b.SetBytes(int64(ranks) << 20)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fs.BeginBurst(ranks)
					for r := 0; r < ranks; r++ {
						if _, err := fs.WriteSize(r, "plt/Cell_D", 1<<20, Labels{Step: i}); err != nil {
							b.Fatal(err)
						}
					}
					fs.EndBurst()
				}
			})
		}
	}
}

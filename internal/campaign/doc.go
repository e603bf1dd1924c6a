// Package campaign defines and executes the paper's Table III parameter
// study: 47 Castro Sedov runs spanning amr.max_step 40-1000, amr.n_cell
// 32² to 131072², amr.max_level 2-4, amr.plot_int 1-20, castro.cfl
// 0.3-0.6, and 1-1024 MPI tasks on up to 512 Summit-node equivalents.
//
// # Engines
//
// Each case runs on one of two engines: the real hydrodynamics solver
// (internal/sim) at laptop-tractable sizes, or the analytic surrogate
// (internal/surrogate) at Summit scale — with the same meshing and the
// same output loop (internal/driver) either way, so Run differs between
// engines only in the constructor. EngineAuto picks by mesh size
// (HydroCellLimit); any other unknown engine name is an error rather
// than a silent fallback. Results carry the full Eq. (2) output ledger and serialize
// to JSON for the reporting and benchmark layers.
//
// # RunAll's serial-equivalence contract
//
// Cases are independent — each simulation owns a private
// iosim.FileSystem, and the solver, surrogate, and plotfile writer share
// no mutable state across runs — so RunAll executes the sweep on a
// worker pool, one worker per core by default, every case through an
// Executor. Its contract: for any parallelism (including 1) and
// any worker scheduling, the returned Results — records, plot counts,
// simulated times, and each case's iosim ledger — are identical to
// running the cases serially in case order. Only wall-clock time
// changes. This holds because each case's randomness is seeded through
// its own filesystem config, the iosim ledger merge is deterministic
// (see the iosim package documentation), and result slots are written by
// index, never shared. All cases run even if some fail; the joined error
// reports every failure.
//
// # Topology
//
// Case.Topology derives the Summit-like per-link contention topology for
// a case (NProcs ranks packed onto Nodes nodes, Alpine NSD fan-in); pass
// it in an iosim.Config to model per-node NIC caps instead of one
// aggregate bandwidth pool. An Executor built without the topology flag
// (RunAll's nil default) keeps the aggregate model, preserving
// historical ledgers.
//
// # Distribution-mapping experiments
//
// Case.Dist selects the decomposition strategy ("roundrobin",
// "knapsack", "sfc"; empty keeps the engines' knapsack default) and is
// rejected by Run when unknown, like an unknown engine. Placement
// studies sweep it as an Axis (ParseAxis("dist", …)) expanded by Cross
// into the strategy cross-product; Groups pivots the members back into
// one report.DistReport per combination of the other swept axes.
// Case.Remap additionally enables the inter-burst layout reorganization
// (amr.RemapToTargets → iosim.FileSystem.Retarget), which rebalances
// the rank→storage-target fan-in before every dump — effective only
// when the case runs against a target-modeling topology with more
// writing ranks than targets.
//
// # Fingerprints and the memoizing executor
//
// Fingerprint(c, withTopology) is the canonical identity of a validated
// case: the case is normalized (Name zeroed — labels don't change
// physics; Engine resolved through the same auto rule Run uses;
// Dist/Storage defaults made explicit), marshaled to canonical JSON,
// salted with the topology flag, and SHA-256 hashed. Normalization only
// collapses differences Run provably ignores; when in doubt a false
// distinction (cache miss) is chosen over a false equality (wrong
// result served from cache). A reflection test walks every Case field
// and fails if perturbing it doesn't change the fingerprint, so new
// fields cannot silently alias cache entries.
//
// Executor is the one way a case runs. Each simulation gets a fresh
// filesystem from Case.FSConfig and streams into one
// iosim.CharacterizeFold — the executor never materializes a ledger —
// under a defensive envelope (Validate, panic recovery, an optional
// timeout that abandons the stuck goroutine and counts it in
// AbandonedInFlight). A caching executor adds an LRU memo keyed by
// fingerprint: RunCase(c, timeout) returns a cached CaseOutput (result,
// burst stats, and I/O profile, Cached=true) for a repeated
// configuration, and coalesces concurrent identical cases into a single
// simulation (single-flight; joiners get the same output). Errors are
// never cached; capacity 0 caches nothing. RunAll runs its worker pool
// on an executor, and WithOutputs hands each case's CaseOutput — plus,
// for a fresh simulation, its finished fold and fault events (the
// Reduction, never cached) — to a per-case hook as it completes: the
// service layer's NDJSON seam and amrio-campaign's report rows. Each run
// has one fold. CheckBatch rejects batches that reuse a case name for a
// different configuration before any work runs.
// The campaign HTTP service built on these seams lives in
// internal/serve.
package campaign

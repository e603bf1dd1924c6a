// Package amrproxyio reproduces "Modeling pre-Exascale AMR Parallel I/O
// Workloads via Proxy Applications" (Godoy, Delozier, Watson — IPDPSW
// 2022, arXiv:2206.00108) as a self-contained Go library.
//
// The repository builds every substrate the paper depends on — a
// block-structured AMR hydrodynamics code standing in for AMReX/Castro, a
// parallel-filesystem model standing in for
// Summit's GPFS, the AMReX plotfile format, and a port of the MACSio proxy
// I/O application — plus the paper's contribution: the analytical model
// translating Castro inputs into MACSio parameters (Eq. 3 and the
// calibrated dataset_growth kernel).
//
// Scaling architecture: every neighbor-search hot path (ghost exchange,
// fill-patch, average-down, reflux, hierarchy swap) runs on two shared
// pieces of spatial metadata rather than all-pairs box scans. A
// grid.BoxIndex — a bucketed spatial hash attached lazily to each
// amr.BoxArray — answers box/point intersection queries in ~O(1), and
// each MultiFab keeps the (src, dst, region) copy schedules its own
// FillBoundary, FillPatch and AverageDown calls replay, so a plan is
// computed once per grid and replayed every timestep until a regrid
// builds new MultiFabs (the same design as AMReX's hashed BoxArray lookup
// plus its FillBoundary/copy comm-metadata caches, with no process-wide
// table: concurrent cases share no amr state). Per-step cost is linear,
// not quadratic, in box count. Campaigns run the hydro engine up to 192²
// cells (campaign.HydroCellLimit); the thousands-of-boxes Summit-class
// cases run on the surrogate, which builds no MultiFab.
//
// An iosim.FileSystem has a single writer: each simulated rank appends
// to its own ledger segment and clock, and burst contention is a
// bandwidth snapshot taken at BeginBurst, so a write's price depends
// only on its rank, that rank's clock and its size. The plotfile,
// checkpoint and MACSio writers therefore price each N-to-N burst in one
// rank-major loop on the caller's goroutine, with no rank goroutines,
// barriers or locks. The plotfile encoders are allocation-frugal
// (one exact-size buffer per Cell_D file, strconv builders for ASCII
// metadata, byte-identical to the original encoders by pinned
// equivalence tests), and campaign.RunAll executes independent sweep
// cases on a worker pool with ledgers identical to the serial loop.
//
// Contention is distribution-mapping-aware: an iosim.Topology places
// ranks on compute nodes (per-node NIC caps) and fans their files into
// GPFS NSD-style storage targets, so BeginBurst snapshots bandwidth per
// (rank, target) link rather than one aggregate pool — packed writers
// contend, spread writers don't. The zero Topology keeps the historical
// aggregate model byte-identical. Like the paper's model, it prices I/O
// only: communication between ranks has no cost term.
//
// Storage is multi-tier: all pricing goes through iosim's StorageModel
// interface, selectable per campaign case ("gpfs" | "bb" | "bb+gpfs").
// Every stack is one GPFS tier — the aggregate pool, the per-link table
// and the two-phase aggregator set priced from one contention snapshot —
// under an optional burst buffer. The burst buffer gives each compute
// node a Summit NVMe partition that absorbs bursts at local speed and
// drains asynchronously to GPFS between them — filling mid-burst stalls
// a writer to the drain rate — so the campaign can sweep the same
// workload across backends and compare per-tier bytes, buffer
// occupancy, drain-compute overlap, and stall stragglers
// (report.StorageReport, amrio-campaign -storage).
//
// Layout:
//
//	internal/grid      index-space geometry (boxes, Morton codes,
//	                   BoxIndex spatial hash)
//	internal/mpisim    an SPMD world of rank goroutines that meet at
//	                   barriers, used only by the benchmark harness
//	internal/iosim     parallel filesystem model + write ledger
//	internal/inputs    AMReX inputs-file parser, Castro configuration
//	internal/stats     OLS, golden-section minimization, error metrics
//	internal/amr       BoxArray, DistributionMapping, MultiFab, tagging,
//	                   Berger-Rigoutsos clustering, fill-patch
//	internal/hydro     2D Euler solver (MUSCL-Hancock + HLLC)
//	internal/sedov     analytic Sedov-Taylor blast relations
//	internal/sim       the Castro-like AMR driver
//	internal/surrogate Summit-scale workload generator (analytic front)
//	internal/plotfile  AMReX plotfile N-to-N writer/reader
//	internal/macsio    MACSio proxy port (miftmpl JSON, MIF/SIF)
//	internal/core      the paper's model: Eq. 1-3, Listing 1, calibration,
//	                   the MACSio replay that closes the loop
//	internal/campaign  the Table III 47-run study
//	internal/report    table/figure renderers
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation section, and cmd/amrio-report renders them from
// saved or fresh campaign runs; its Listing 1 is the command its Fig. 10
// replays. ARCHITECTURE.md maps the package graph
// and the load-bearing designs. Start with this package's Example in
// example_test.go: a small Sedov run on real disk, its per-(step, level,
// task) ledger, a plotfile read back, and the Darshan-style profile on
// GPFS and on the burst-buffer stack; internal/sim's Example renders
// the paper's Fig. 4. go test checks the output of both.
package amrproxyio

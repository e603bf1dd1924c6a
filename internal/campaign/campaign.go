package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"amrproxyio/internal/driver"
	"amrproxyio/internal/faults"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
	"amrproxyio/internal/resilience"
	"amrproxyio/internal/sim"
	"amrproxyio/internal/surrogate"
)

// Engine selects the execution substrate for a case.
type Engine string

// Engines. Auto picks Hydro at or below HydroCellLimit, Surrogate above.
const (
	EngineAuto      Engine = "auto"
	EngineHydro     Engine = "hydro"
	EngineSurrogate Engine = "surrogate"
)

// HydroCellLimit is the largest square mesh edge the full solver runs in
// the campaign; larger cases use the surrogate (documented substitution).
const HydroCellLimit = 192

// Case is one row of the Table III study.
type Case struct {
	Name     string  `json:"name"`
	NCell    int     `json:"n_cell"` // square mesh edge
	MaxLevel int     `json:"max_level"`
	MaxStep  int     `json:"max_step"`
	PlotInt  int     `json:"plot_int"`
	CFL      float64 `json:"cfl"`
	NProcs   int     `json:"nprocs"`
	Nodes    int     `json:"summit_nodes"`
	Engine   Engine  `json:"engine"`
	// Dist selects the distribution-mapping strategy both engines build
	// their hierarchies with. The empty string keeps the engines'
	// historical knapsack default; unknown names are rejected by Run,
	// like unknown engines.
	Dist Dist `json:"dist,omitempty"`
	// Remap enables the inter-burst layout reorganization
	// (amr.RemapToTargets): before every dump the rank→storage-target
	// placement is rebalanced to the hierarchy's per-rank load. Only
	// meaningful when the case runs against a target-modeling topology.
	Remap bool `json:"remap,omitempty"`
	// Storage selects the iosim storage-tier stack the case's filesystem
	// prices writes with ("gpfs" | "bb" | "bb+gpfs"). The empty string
	// keeps the historical single-tier model; unknown names are rejected
	// by Validate, like unknown engines and dists. The selection takes
	// effect through FSConfig (the Executor's filesystems); callers
	// handing Run a custom filesystem configure it there.
	Storage Storage `json:"storage,omitempty"`
	// BBCapacity overrides the per-node burst-buffer capacity in bytes
	// of the "bb" and "bb+gpfs" stacks (amrio-campaign -bbcap); shrink it
	// to watch bursts fill the buffer and stall at the drain rate. 0
	// keeps Summit's 1.6 TB NVMe; negative and non-finite values are
	// rejected by Validate. It takes effect through FSConfig, like
	// Storage.
	BBCapacity float64 `json:"bb_capacity,omitempty"`
	// ComputeSeconds models the compute phase between time steps on the
	// filesystem clocks (driver.Options.StepSeconds): bursts are
	// separated by compute gaps that an asynchronous burst-buffer drain
	// overlaps. 0 keeps the historical back-to-back bursts.
	ComputeSeconds float64 `json:"compute_seconds,omitempty"`
	// Faults schedules deterministic fault injection against the case's
	// simulated time (internal/faults): target outages, NIC degradation,
	// burst-buffer loss, and rank interrupts. nil (and the zero plan)
	// keeps the fault-free write path byte-identical. The plan takes
	// effect through FSConfig, like Storage; invalid plans are rejected
	// by Validate.
	Faults *faults.Plan `json:"faults,omitempty"`
	// Mitigate enables the closed-loop fault-mitigation policy engine
	// (internal/resilience) against the case's fault plan: adaptive
	// checkpoint cadence, target quarantine, and degraded-mode output.
	// nil (and the zero policy) keeps every path byte-identical; invalid
	// policies are rejected by Validate.
	Mitigate *resilience.Policy `json:"mitigate,omitempty"`
	// Aggregation selects the two-phase collective output layout
	// (iosim.AggregationSpec): aggregators gather their node peers' data
	// and are the only ranks that open files on the storage tiers. nil
	// keeps the direct every-rank-writes pattern byte-identical; the
	// spec takes effect through FSConfig, like Storage and Faults, and
	// invalid specs are rejected by Validate.
	Aggregation *iosim.AggregationSpec `json:"aggregation,omitempty"`
}

// Validate consolidates the case-level name checks — unknown engine,
// unknown distribution strategy, unknown storage tier — into the one
// place Run, RunAll, and the amrio-campaign flag parser all use, so a
// typo is rejected with the same message everywhere.
func (c Case) Validate() error {
	switch c.Engine {
	case "", EngineAuto, EngineHydro, EngineSurrogate:
	default:
		return fmt.Errorf("campaign %s: unknown engine %q", c.Name, c.Engine)
	}
	if _, err := c.Dist.strategy(); err != nil {
		return fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	if _, err := iosim.ParseStorage(string(c.Storage)); err != nil {
		return fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	switch {
	case c.NCell < 1:
		return fmt.Errorf("campaign %s: n_cell %d must be >= 1", c.Name, c.NCell)
	case c.NCell%blockingFactor != 0:
		return fmt.Errorf("campaign %s: n_cell %d must be a multiple of the blocking factor %d", c.Name, c.NCell, blockingFactor)
	case c.NProcs < 1:
		return fmt.Errorf("campaign %s: nprocs %d must be >= 1", c.Name, c.NProcs)
	case c.MaxStep < 0:
		return fmt.Errorf("campaign %s: max_step %d must be >= 0", c.Name, c.MaxStep)
	case c.MaxLevel < 0:
		return fmt.Errorf("campaign %s: max_level %d must be >= 0", c.Name, c.MaxLevel)
	case !(c.CFL > 0 && c.CFL < 1):
		return fmt.Errorf("campaign %s: cfl %g must be in (0,1)", c.Name, c.CFL)
	case c.ComputeSeconds < 0:
		return fmt.Errorf("campaign %s: negative compute_seconds %g", c.Name, c.ComputeSeconds)
	case math.IsNaN(c.ComputeSeconds) || math.IsInf(c.ComputeSeconds, 1):
		return fmt.Errorf("campaign %s: compute_seconds %g must be finite", c.Name, c.ComputeSeconds)
	}
	if !(c.BBCapacity >= 0) || math.IsInf(c.BBCapacity, 1) {
		return fmt.Errorf("campaign %s: bb_capacity %g must be a finite number of bytes >= 0", c.Name, c.BBCapacity)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	if err := c.Mitigate.Validate(); err != nil {
		return fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	if c.Aggregation != nil {
		if err := c.Aggregation.Validate(); err != nil {
			return fmt.Errorf("campaign %s: %w", c.Name, err)
		}
	}
	return nil
}

// blockingFactor is the amr.blocking_factor every case runs with (see
// Inputs). Validate requires NCell to be a multiple of it, as AMReX
// requires of amr.n_cell, and Scaled rounds down to it.
const blockingFactor = 8

// Inputs converts a case to the Castro configuration it runs with.
func (c Case) Inputs() inputs.CastroInputs {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{c.NCell, c.NCell}
	cfg.MaxLevel = c.MaxLevel
	cfg.MaxStep = c.MaxStep
	cfg.PlotInt = c.PlotInt
	cfg.CFL = c.CFL
	cfg.NProcs = c.NProcs
	cfg.StopTime = 10 // step-bounded, not time-bounded
	cfg.BlockingFactor = blockingFactor
	switch {
	case c.NCell <= 64:
		cfg.MaxGridSize = 32
	case c.NCell <= 1024:
		cfg.MaxGridSize = 64
	default:
		cfg.MaxGridSize = 256
	}
	return cfg
}

// Topology derives the case's Summit-like hardware placement for the
// iosim per-link contention model: NProcs ranks packed onto Nodes
// compute nodes with per-node NIC caps and Alpine-style NSD fan-in.
// Cases without a node count (Nodes <= 0) return the zero (disabled)
// topology, preserving the aggregate model.
func (c Case) Topology() iosim.Topology {
	return iosim.TopologyForCase(c.Nodes, c.NProcs)
}

// FSConfig derives the iosim configuration the case runs against: the
// default Summit-flavored model, the per-link topology when withTopology
// is set, and the case's storage-tier stack — burst-buffer cases get the
// Summit NVMe spec sized to the case's node count, with BBCapacity
// overriding the per-node capacity. The Executor builds every filesystem
// from this, so the filesystem is a function of the case (and the
// executor's topology flag) alone.
func (c Case) FSConfig(withTopology bool) iosim.Config {
	cfg := iosim.DefaultConfig()
	if withTopology {
		cfg.Topology = c.Topology()
	}
	cfg.Storage = string(c.Storage)
	if c.Storage == StorageBB || c.Storage == StorageTiered {
		cfg.BurstBuffer = iosim.DefaultBurstBuffer(max(1, c.Nodes))
		if c.BBCapacity > 0 {
			cfg.BurstBuffer.NodeCapacity = c.BBCapacity
		}
	}
	if c.Aggregation != nil {
		cfg.Aggregation = *c.Aggregation
	}
	// The nil guard matters: storing a typed-nil *faults.Injector into
	// the interface field would defeat iosim's `cfg.Faults == nil` fast
	// path. The injector's failover pool is bounded by the same topology
	// the filesystem prices against.
	if inj := c.Faults.Injector(cfg.Topology); inj != nil {
		cfg.Faults = inj
	}
	return cfg
}

// engineFor resolves EngineAuto (and the empty string). Any other engine
// name passes through unchanged so Run can reject typos instead of
// silently auto-resolving them.
func (c Case) engineFor() Engine {
	if c.Engine != EngineAuto && c.Engine != "" {
		return c.Engine
	}
	if c.NCell <= HydroCellLimit {
		return EngineHydro
	}
	return EngineSurrogate
}

// Scaled returns a reduced copy for fast benchmarking: the mesh edge
// divides by div, rounded down to the blocking factor with a floor of
// 32, while cfl, levels, and rank counts are preserved. Step counts
// shrink less aggressively — the Sedov spin-up (castro.init_shrink
// damping plus the hot-center sound speed) consumes a fixed number of
// early steps regardless of mesh size, which is exactly why the paper's
// case4 runs 400 steps for 20 outputs. The scaled case keeps at least
// 160 steps and re-derives plot_int to preserve the original number of
// plot events.
func (c Case) Scaled(div int) Case {
	if div <= 1 {
		return c
	}
	out := c
	out.Name = fmt.Sprintf("%s_div%d", c.Name, div)
	out.NCell = max(32, c.NCell/div/blockingFactor*blockingFactor)
	events := max(2, c.MaxStep/max(1, c.PlotInt))
	out.MaxStep = max(160, c.MaxStep/div)
	out.PlotInt = max(1, out.MaxStep/events)
	out.NProcs = max(1, min(c.NProcs, 64)) // cap goroutine fan-out
	return out
}

// Result is a completed case with its output ledger.
type Result struct {
	Case    Case                    `json:"case"`
	Engine  Engine                  `json:"engine"`
	Records []plotfile.OutputRecord `json:"records"`
	NPlots  int                     `json:"n_plots"`
	SimTime float64                 `json:"sim_time"`
	Wall    time.Duration           `json:"wall_ns"`
	// Mitigation carries the policy engine's action counters when
	// Case.Mitigate ran one; nil otherwise.
	Mitigation *resilience.Stats `json:"mitigation,omitempty"`
}

// TotalBytes sums the ledger.
func (r Result) TotalBytes() int64 {
	return plotfile.TotalBytes(r.Records)
}

// Run executes a case through the given filesystem model (which may be
// shared across cases; pass a fresh one to isolate ledgers).
func Run(c Case, fs *iosim.FileSystem) (Result, error) {
	return run(context.Background(), c, fs)
}

// run is Run under ctx: a case whose ctx ends before its run does stops
// at the next step and returns the context's error.
func run(ctx context.Context, c Case, fs *iosim.FileSystem) (Result, error) {
	start := time.Now()
	res := Result{Case: c, Engine: c.engineFor()}
	if err := c.Validate(); err != nil {
		return res, err
	}
	// Validate has vetted the strategy and left only the two engines.
	strat, _ := c.Dist.strategy()
	out := driver.Options{Remap: c.Remap, StepSeconds: c.ComputeSeconds, Mitigate: c.Mitigate}
	var d *driver.Driver
	var err error
	if res.Engine == EngineHydro {
		opts := sim.DefaultOptions()
		opts.Options, opts.Dist = out, strat
		var s *sim.Sim
		if s, err = sim.New(c.Inputs(), opts, fs); err == nil {
			d = s.Driver
		}
	} else {
		opts := surrogate.DefaultOptions()
		opts.Options, opts.Dist = out, strat
		var r *surrogate.Runner
		if r, err = surrogate.New(c.Inputs(), opts, fs); err == nil {
			d = r.Driver
		}
	}
	if err == nil {
		err = d.Run(ctx)
	}
	if err != nil {
		return res, fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	res.Records, res.NPlots, res.SimTime, res.Mitigation = d.Records(), d.NPlots(), d.SimTime(), d.Mitigation()
	res.Wall = time.Since(start)
	return res, nil
}

// RunOption tunes RunAll's worker pool.
type RunOption func(*runOptions)

type runOptions struct {
	caseTimeout time.Duration
	onOutput    func(i int, out CaseOutput, red *Reduction, err error)
}

// WithOutputs registers a per-case completion hook: called once per
// case, from the worker goroutine that finished it, with the case's
// index, its output, the Reduction of a fresh simulation (nil for a
// case served from the cache, joined onto another caller's run, or
// failed), and its error. Completion order is whatever the pool produces
// — the hook is for streaming consumers (the serve layer's NDJSON
// writer, amrio-campaign's report rows) that reduce results as they land
// rather than when the whole batch returns. The Reduction is never
// cached: read what you need before the hook returns. The hook must be
// safe for concurrent calls when parallelism > 1.
func WithOutputs(fn func(i int, out CaseOutput, red *Reduction, err error)) RunOption {
	return func(o *runOptions) { o.onOutput = fn }
}

// WithCaseTimeout bounds each case's wall-clock run time: a case still
// running after d stops at its next step and returns a timeout error
// while the pool moves on, so nothing of it outlives the call. The
// deadline only decides complete or error: a timed-out case yields no
// partial result and is never cached. d <= 0 disables the bound.
func WithCaseTimeout(d time.Duration) RunOption {
	return func(o *runOptions) { o.caseTimeout = d }
}

// RunAll executes cases concurrently on up to parallelism workers,
// every case through the executor e (nil selects NewExecutor(0, false):
// uncached, aggregate model), and returns one Result per case, in case
// order. Each simulation gets its own filesystem built from the case's
// FSConfig, so the results — records, plot counts, simulated times — are
// identical to running the cases serially; only wall-clock changes.
// parallelism < 1 selects GOMAXPROCS workers. All cases run even if some
// fail; a panicking case is recovered into its own error Result instead
// of killing the pool, and the returned error joins every per-case
// failure.
func RunAll(cases []Case, parallelism int, e *Executor, opts ...RunOption) ([]Result, error) {
	if len(cases) == 0 {
		return nil, nil
	}
	var opt runOptions
	for _, o := range opts {
		o(&opt)
	}
	if e == nil {
		e = NewExecutor(0, false)
	}
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	parallelism = min(parallelism, len(cases))
	results := make([]Result, len(cases))
	errs := make([]error, len(cases))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out, red, err := e.execute(cases[i], opt.caseTimeout)
				results[i], errs[i] = out.Result, err
				if opt.onOutput != nil {
					opt.onOutput(i, out, red, err)
				}
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, errors.Join(errs...)
}

// Save writes a result to a JSON file.
func (r Result) Save(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: marshal %s: %w", r.Case.Name, err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadResult reads a previously saved result. Unknown fields and data
// after the result are rejected.
func LoadResult(path string) (Result, error) {
	var r Result
	data, err := os.ReadFile(path)
	if err != nil {
		return r, fmt.Errorf("campaign: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("campaign: unmarshal %s: %w", path, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return r, fmt.Errorf("campaign: unmarshal %s: trailing data after the result", path)
	}
	return r, nil
}

// Package driver owns the output sequence both engines share: the run
// loop (advance → compute-phase clocks → regrid → plot → adaptive
// checkpoint) and everything around one output burst — degraded-mode
// shedding, the inter-burst layout remap (Wan et al.), the N-to-N write,
// and the mitigation engine's observation of it. The engines supply
// only what differs between them through Model: the hydro solver
// (internal/sim) or the analytic Sedov front (internal/surrogate).
//
// With a zero Options (no remap, no compute phase, no policy) every step
// is the historical plot-only loop; each option adds its stage without
// touching the others.
package driver

import (
	"errors"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
	"amrproxyio/internal/resilience"
)

// Model is the engine side of a run.
type Model interface {
	// Advance takes one time step.
	Advance()
	// Regrid rebuilds the refined levels for the current state.
	Regrid() error
	// Progress reports the step count and simulated time.
	Progress() (step int, time float64)
	// PlotSpec and CheckpointSpec describe the current hierarchy as one
	// plot or checkpoint burst.
	PlotSpec() plotfile.Spec
	CheckpointSpec() plotfile.CheckpointSpec
}

// Options are the output-side knobs, embedded in both engines' options.
type Options struct {
	// Remap enables the inter-burst layout reorganization (Wan et al.):
	// before every plot/checkpoint burst the rank→storage-target mapping
	// is rebuilt from the hierarchy's per-rank load via
	// amr.RemapToTargets. A no-op unless the filesystem's Topology models
	// storage targets.
	Remap bool
	// StepSeconds models the compute phase between time steps on the
	// filesystem clocks: after each Advance, every rank's clock moves
	// forward by this much, so bursts are separated by compute gaps and
	// an asynchronous burst-buffer drain (iosim Storage "bb"/"bb+gpfs")
	// overlaps compute the way the paper's runs do. 0 (the default)
	// keeps the historical clocks byte-identical.
	StepSeconds float64
	// Mitigate enables the closed-loop fault-mitigation policy engine
	// (internal/resilience): adaptive checkpoint cadence, target
	// quarantine, and degraded-mode output, driven between bursts by the
	// run's own fault events. A nil or zero policy (or a filesystem
	// without a fault injector) builds no engine and keeps every path
	// byte-identical.
	Mitigate *resilience.Policy
}

// Driver runs a Model and accumulates its plot output ledger.
type Driver struct {
	m    Model
	cfg  inputs.CastroInputs
	opts Options
	fs   *iosim.FileSystem
	// engine is the between-burst mitigation engine; nil (the common
	// case) disables mitigation — its methods are nil-receiver no-ops.
	engine *resilience.Engine

	records []plotfile.OutputRecord
	nPlots  int
}

// New builds the driver for m. fs receives every burst; it may be nil
// when the caller never writes, in which case Run only steps the model.
func New(m Model, cfg inputs.CastroInputs, opts Options, fs *iosim.FileSystem) *Driver {
	return &Driver{m: m, cfg: cfg, opts: opts, fs: fs,
		engine: resilience.ForFileSystem(opts.Mitigate, fs, cfg.NProcs)}
}

// PlotStep reports whether step is on the plot_int cadence.
func PlotStep(cfg inputs.CastroInputs, step int) bool {
	return cfg.PlotInt > 0 && step%cfg.PlotInt == 0
}

// Records returns all plotfile output records accumulated so far.
func (d *Driver) Records() []plotfile.OutputRecord { return d.records }

// NPlots returns how many plotfiles have been written.
func (d *Driver) NPlots() int { return d.nPlots }

// SimTime returns the model's current simulated time.
func (d *Driver) SimTime() float64 {
	_, t := d.m.Progress()
	return t
}

// Mitigation returns the policy engine's action counters, or nil when no
// mitigation policy ran.
func (d *Driver) Mitigation() *resilience.Stats { return d.engine.Stats() }

// Run executes the whole run: a plot of the starting state when its step
// is on the plot cadence, then steps
// until max_step or stop_time, each followed by the compute phase on the
// filesystem clocks, a regrid every regrid_int steps (when refinement is
// enabled), a plot every plot_int steps, and a checkpoint whenever the
// adaptive cadence calls for one.
func (d *Driver) Run() error {
	if err := d.maybePlot(); err != nil {
		return err
	}
	for d.running() {
		d.m.Advance()
		d.advanceClocks()
		if step, _ := d.m.Progress(); d.cfg.RegridInt > 0 && step%d.cfg.RegridInt == 0 && d.cfg.MaxLevel > 0 {
			if err := d.m.Regrid(); err != nil {
				return err
			}
		}
		if err := d.maybePlot(); err != nil {
			return err
		}
		if err := d.maybeCheckpoint(); err != nil {
			return err
		}
	}
	return nil
}

func (d *Driver) running() bool {
	step, t := d.m.Progress()
	return step < d.cfg.MaxStep && (d.cfg.StopTime <= 0 || t < d.cfg.StopTime)
}

// WritePlot emits a plotfile of the current hierarchy — after the layout
// remap, without the shed decision — and accumulates its records.
func (d *Driver) WritePlot() error {
	if d.fs == nil {
		return errors.New("driver: no filesystem configured")
	}
	return d.writePlot(d.m.PlotSpec())
}

func (d *Driver) writePlot(spec plotfile.Spec) error {
	if err := d.remap(spec.Levels); err != nil {
		return err
	}
	recs, err := plotfile.Write(d.fs, spec)
	if err != nil {
		return err
	}
	d.records = append(d.records, recs...)
	d.nPlots++
	return nil
}

// maybePlot writes the scheduled plotfile unless degraded-mode output
// sheds it; written bursts feed the engine's burst-wall estimate.
func (d *Driver) maybePlot() error {
	if step, _ := d.m.Progress(); d.fs == nil || !PlotStep(d.cfg, step) {
		return nil
	}
	spec := d.m.PlotSpec()
	if d.engine != nil && d.engine.ShedPlot(d.fs, plotBytes(spec)) {
		return nil
	}
	t0 := d.engine.Clock(d.fs)
	if err := d.writePlot(spec); err != nil {
		return err
	}
	d.engine.BurstWritten(d.fs, t0, false)
	return nil
}

// maybeCheckpoint writes a checkpoint when the adaptive cadence calls for
// one. There is no fixed checkpoint schedule: the paper's analysis covers
// plot dumps, so policy-free runs write none.
func (d *Driver) maybeCheckpoint() error {
	if d.fs == nil || !d.engine.Adaptive() || !d.engine.CheckpointDue(d.fs) {
		return nil
	}
	t0 := d.engine.Clock(d.fs)
	spec := d.m.CheckpointSpec()
	if err := d.remap(spec.Levels); err != nil {
		return err
	}
	if _, err := plotfile.WriteCheckpoint(d.fs, spec); err != nil {
		return err
	}
	d.engine.BurstWritten(d.fs, t0, true)
	return nil
}

// plotBytes is the nominal Cell_D payload of a plot burst — what
// ShedPlot records as shed bytes.
func plotBytes(spec plotfile.Spec) int64 {
	var total int64
	for _, lev := range spec.Levels {
		idx := make([]int, lev.BA.Len())
		for i := range idx {
			idx[i] = i
		}
		total += plotfile.CellDBytes(lev.BA, idx, len(spec.VarNames))
	}
	return total
}

// remap reorganizes the rank→storage-target layout for the upcoming
// burst (Options.Remap, or quarantined targets to route around): each
// rank's load is the cell count it owns across all levels —
// proportional to the bytes it is about to write — scaled away from
// degraded nodes, and amr.RemapToTargetsAvoiding balances that fan-in
// across the topology's targets. Without target modeling the remap is
// nil and Retarget keeps the round-robin placement.
func (d *Driver) remap(levels []plotfile.LevelSpec) error {
	avoid := d.engine.AvoidTargets()
	if !d.opts.Remap && len(avoid) == 0 {
		return nil
	}
	var owner []int
	var loads []int64
	for _, lev := range levels {
		for i, b := range lev.BA.Boxes {
			owner = append(owner, lev.DM.Owner[i])
			loads = append(loads, b.NumPts())
		}
	}
	fscfg := d.fs.Config()
	topo := fscfg.Topology
	d.engine.ScaleLoads(topo, d.cfg.NProcs, owner, loads)
	// With two-phase aggregation active only aggregator ranks open files:
	// fold each owner onto its aggregator before balancing, else the
	// remap spreads fan-in across member ranks that never write and
	// double-counts their load against the aggregator's target.
	if am := fscfg.Aggregation.AggregatorMap(topo, d.cfg.NProcs); am != nil {
		for i, o := range owner {
			if o >= 0 && o < len(am) {
				owner[i] = am[o]
			}
		}
	}
	m := amr.RemapToTargetsAvoiding(amr.DistributionMapping{Owner: owner}, topo, loads, avoid)
	// The remap covers ranks up to the highest box owner; Retarget
	// validates full burst coverage, so pad box-less top ranks with
	// their round-robin placement.
	for r := len(m); m != nil && r < d.cfg.NProcs; r++ {
		m = append(m, r%topo.Targets)
	}
	return d.fs.Retarget(m)
}

// advanceClocks applies Options.StepSeconds of compute time to every
// rank's filesystem clock — the inter-burst gap asynchronous storage
// drains overlap with.
func (d *Driver) advanceClocks() {
	if d.opts.StepSeconds <= 0 || d.fs == nil {
		return
	}
	for r := 0; r < d.cfg.NProcs; r++ {
		d.fs.AdvanceClock(r, d.opts.StepSeconds)
	}
}

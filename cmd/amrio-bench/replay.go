package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/campaign"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/hydro"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/mpisim"
	"amrproxyio/internal/plotfile"
	"amrproxyio/internal/resilience"
	"amrproxyio/internal/sedov"
	"amrproxyio/internal/sim"
	"amrproxyio/internal/surrogate"
)

// Layer replay. The traced pass cannot put spans inside the program, so
// after the real op it re-runs the case from the layers' exported
// functions, one layer at a time, with a span around each call:
//
//	op → campaign.validate, campaign.fingerprint,
//	     engine.solve        (the engine stepped with no filesystem),
//	     plotfile.write      (plotfile.Write per burst on the stepped hierarchy)
//	       → mpisim.spmd     (an SPMD barrier at the burst's rank count)
//	       → iosim.price     (BeginBurst / WriteSize x records / EndBurst)
//	           → faults.price (priced with − without the fault plan; derived)
//	     iosim.fold          (CharacterizeFold over the captured records)
//	     resilience.observe  (the policy engine's between-burst calls)
//
// The replay drives the same output sequence the engines' run loops do
// (shed? → remap → burst → observe → advance clocks → adaptive
// checkpoint), using only exported API, and then asserts what it
// produced — plot records, burst statistics, the I/O profile, byte
// totals — equals the real op's output. A divergence means the replay
// no longer mirrors the program and is counted as a failed op.

// capture is a LedgerConsumer that keeps each burst's records, in the
// rank-major order the filesystem feeds them.
type capture struct {
	cur []iosim.WriteRecord
}

func (c *capture) Consume(r iosim.WriteRecord) { c.cur = append(c.cur, r) }
func (c *capture) Flush()                      {}

// cut closes the current burst and returns its records.
func (c *capture) cut() []iosim.WriteRecord {
	b := c.cur
	c.cur = nil
	return b
}

// burstInfo is what the pricing replay needs to re-issue one burst.
type burstInfo struct {
	recs     []iosim.WriteRecord
	span     int     // the burst's plotfile.write span
	advanced float64 // compute seconds every rank's clock moved since the previous burst
	retarget []int   // rank→target map installed before the burst
	remapped bool
}

// caseReplay is the state of one case's replay.
type caseReplay struct {
	tc   *traceCtx
	root int
	c    campaign.Case
	cfg  inputs.CastroInputs
	topo bool

	fs  *iosim.FileSystem
	cap *capture
	eng *resilience.Engine

	records []plotfile.OutputRecord
	nPlots  int
	bursts  []burstInfo
	pending float64 // clock advance not yet attached to a burst

	solveNS int64
}

func newCaseReplay(tc *traceCtx, root int, c campaign.Case, topo bool) *caseReplay {
	rp := &caseReplay{tc: tc, root: root, c: c, cfg: c.Inputs(), topo: topo, cap: &capture{}}
	rp.fs = iosim.New(c.FSConfig(topo), "")
	rp.fs.Attach(rp.cap)
	rp.eng = resilience.ForFileSystem(c.Mitigate, rp.fs, rp.cfg.NProcs)
	return rp
}

func distStrategy(c campaign.Case) (amr.DistStrategy, error) {
	if c.Dist == campaign.DistDefault {
		return amr.DistKnapsack, nil
	}
	return amr.ParseDistStrategy(string(c.Dist))
}

// span runs fn under a span that is a child of the op's root.
func (rp *caseReplay) span(name string, fn func()) int64 {
	id := rp.tc.tr.begin(name, rp.tc.op, rp.root)
	fn()
	return rp.tc.tr.end(id)
}

// observe runs one of the policy engine's between-burst calls under a
// resilience.observe span. With no engine the calls are no-ops and get
// no span.
func (rp *caseReplay) observe(fn func()) {
	if rp.eng == nil {
		fn()
		return
	}
	rp.span("resilience.observe", fn)
}

// advanceClocks models one step's compute phase, as the run loops do.
func (rp *caseReplay) advanceClocks() {
	if rp.c.ComputeSeconds <= 0 {
		return
	}
	for rk := 0; rk < rp.cfg.NProcs; rk++ {
		rp.fs.AdvanceClock(rk, rp.c.ComputeSeconds)
	}
	rp.pending += rp.c.ComputeSeconds
}

// remap mirrors the engines' remapTargets: per-rank load from the
// hierarchy, scaled away from degraded nodes, folded onto aggregators,
// packed onto targets avoiding the quarantined ones.
func (rp *caseReplay) remap(levels []plotfile.LevelSpec) ([]int, bool, error) {
	avoid := rp.eng.AvoidTargets()
	if !rp.c.Remap && len(avoid) == 0 {
		return nil, false, nil
	}
	var m []int
	var err error
	rp.span("amr.remap", func() {
		owner, loads := ownersAndLoads(levels)
		topo := rp.fs.Config().Topology
		rp.eng.ScaleLoads(topo, rp.cfg.NProcs, owner, loads)
		if am := rp.fs.Config().Aggregation.AggregatorMap(topo, rp.cfg.NProcs); am != nil {
			for i, o := range owner {
				if o >= 0 && o < len(am) {
					owner[i] = am[o]
				}
			}
		}
		m = amr.RemapToTargetsAvoiding(amr.DistributionMapping{Owner: owner}, topo, loads, avoid)
		for rk := len(m); m != nil && rk < rp.cfg.NProcs; rk++ {
			m = append(m, rk%topo.Targets)
		}
		err = rp.fs.Retarget(m)
	})
	return m, true, err
}

func ownersAndLoads(levels []plotfile.LevelSpec) (owner []int, loads []int64) {
	for _, lev := range levels {
		for i, b := range lev.BA.Boxes {
			owner = append(owner, lev.DM.Owner[i])
			loads = append(loads, b.NumPts())
		}
	}
	return owner, loads
}

// plotBytes is the nominal Cell_D payload of a plot over the hierarchy,
// what the engines hand ShedPlot.
func plotBytes(levels []plotfile.LevelSpec) int64 {
	var total int64
	for _, lev := range levels {
		idx := make([]int, lev.BA.Len())
		for i := range idx {
			idx[i] = i
		}
		total += plotfile.CellDBytes(lev.BA, idx, len(sim.PlotVarNames))
	}
	return total
}

// plot writes one scheduled plot burst unless the policy sheds it.
func (rp *caseReplay) plot(step int, simTime float64, levels []plotfile.LevelSpec) error {
	shed := false
	rp.observe(func() {
		shed = rp.eng != nil && rp.eng.ShedPlot(rp.fs, plotBytes(levels))
	})
	if shed {
		return nil
	}
	spec := plotfile.Spec{
		Root:     fmt.Sprintf("%s%05d", rp.cfg.PlotFile, step),
		VarNames: sim.PlotVarNames,
		Time:     simTime,
		Step:     step,
		NProcs:   rp.cfg.NProcs,
		Levels:   levels,
	}
	recs, err := rp.burst(levels, false, func() ([]plotfile.OutputRecord, error) {
		return plotfile.Write(rp.fs, spec)
	})
	if err != nil {
		return err
	}
	rp.records = append(rp.records, recs...)
	rp.nPlots++
	return nil
}

// checkpoint writes a size-only checkpoint when the adaptive cadence
// calls for one (the surrogate's only checkpoint source).
func (rp *caseReplay) checkpoint(step int, simTime, lastDt float64, levels []plotfile.LevelSpec) error {
	if !rp.eng.Adaptive() {
		return nil
	}
	due := false
	rp.observe(func() { due = rp.eng.CheckpointDue(rp.fs) })
	if !due {
		return nil
	}
	spec := plotfile.CheckpointSpec{
		Root:     fmt.Sprintf("%s%05d", rp.cfg.CheckFile, step),
		Time:     simTime,
		Step:     step,
		LastDt:   lastDt,
		NComp:    hydro.NCons,
		NProcs:   rp.cfg.NProcs,
		SizeOnly: true,
		Levels:   levels,
	}
	_, err := rp.burst(levels, true, func() ([]plotfile.OutputRecord, error) {
		return plotfile.WriteCheckpoint(rp.fs, spec)
	})
	return err
}

// burst is the shared remap → write → observe sequence around one
// output burst, with the write under a plotfile.write span.
func (rp *caseReplay) burst(levels []plotfile.LevelSpec, checkpoint bool, write func() ([]plotfile.OutputRecord, error)) ([]plotfile.OutputRecord, error) {
	t0 := rp.eng.Clock(rp.fs)
	m, remapped, err := rp.remap(levels)
	if err != nil {
		return nil, err
	}
	var recs []plotfile.OutputRecord
	id := rp.tc.tr.begin("plotfile.write", rp.tc.op, rp.root)
	recs, err = write()
	ns := rp.tc.tr.end(id)
	if err != nil {
		return nil, err
	}
	rp.observe(func() { rp.eng.BurstWritten(rp.fs, t0, checkpoint) })

	written := rp.cap.cut()
	rp.bursts = append(rp.bursts, burstInfo{recs: written, span: id, advanced: rp.pending, retarget: m, remapped: remapped})
	rp.pending = 0

	acc := rp.tc.acc
	acc.sample("plotfile.write_ms_per_burst", float64(ns)/1e6)
	acc.sample("plotfile.records_per_burst", float64(len(written)))
	if levels[0].State != nil && ns > 0 {
		var data int64
		for _, r := range written {
			data += r.Bytes
		}
		acc.sample("plotfile.data_mb_s", float64(data)/(1<<20)/(float64(ns)/1e9))
	}
	rp.amrDiagnostics(levels)
	return recs, nil
}

// amrDiagnostics times the amr calls a burst leans on, outside any
// span: they are diagnostics of the hierarchy at this burst, not part of
// the op's attribution.
func (rp *caseReplay) amrDiagnostics(levels []plotfile.LevelSpec) {
	acc := rp.tc.acc
	strat, err := distStrategy(rp.c)
	if err != nil {
		return
	}
	t0 := time.Now()
	for _, lev := range levels {
		for rk := 0; rk < rp.cfg.NProcs; rk++ {
			sinkInts = lev.DM.RankBoxes(rk)
		}
	}
	acc.sample("amr.rankboxes_us_per_burst", usSince(t0))

	t0 = time.Now()
	for _, lev := range levels {
		if _, err := amr.Distribute(lev.BA, rp.cfg.NProcs, strat); err != nil {
			return
		}
	}
	acc.sample("amr.distribute_us", usSince(t0))

	if topo := rp.fs.Config().Topology; topo.Enabled() && topo.Targets > 0 {
		owner, loads := ownersAndLoads(levels)
		t0 = time.Now()
		sinkInts = amr.RemapToTargets(amr.DistributionMapping{Owner: owner}, topo, loads)
		acc.sample("amr.remap_us", usSince(t0))
	}
}

// sinkInts keeps diagnostic calls from being optimized away.
var sinkInts []int

func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// surrogateLevels views the runner's hierarchy the way WritePlot does.
func surrogateLevels(r *surrogate.Runner) []plotfile.LevelSpec {
	levels := make([]plotfile.LevelSpec, len(r.BAs))
	for l := range r.BAs {
		levels[l] = plotfile.LevelSpec{Geom: r.Geoms[l], BA: r.BAs[l], DM: r.DMs[l], RefRatio: r.Cfg.RefRatioAt(l)}
	}
	return levels
}

// stepSurrogate drives a filesystem-less surrogate.Runner through the
// run loop's sequence, writing bursts through the replay.
func (rp *caseReplay) stepSurrogate() error {
	strat, err := distStrategy(rp.c)
	if err != nil {
		return err
	}
	opts := surrogate.DefaultOptions()
	opts.Dist = strat
	acc := rp.tc.acc

	var r *surrogate.Runner
	rp.solveNS += rp.span("engine.solve", func() { r, err = surrogate.New(rp.cfg, opts, nil) })
	if err != nil {
		return err
	}
	countBoxes := func() {
		acc.add("surrogate.rebuilds", 1)
		for _, ba := range r.BAs {
			acc.add("surrogate.boxes", float64(ba.Len()))
		}
	}
	countBoxes()
	if r.ShouldPlot() {
		if err := rp.plot(r.Step, r.Time, surrogateLevels(r)); err != nil {
			return err
		}
	}
	for r.Step < rp.cfg.MaxStep {
		if rp.cfg.StopTime > 0 && r.Time >= rp.cfg.StopTime {
			break
		}
		rp.solveNS += rp.span("engine.solve", func() {
			r.Advance()
			if rp.cfg.RegridInt > 0 && r.Step%rp.cfg.RegridInt == 0 {
				err = r.Rebuild()
				countBoxes()
			}
		})
		if err != nil {
			return err
		}
		rp.advanceClocks()
		if r.ShouldPlot() {
			if err := rp.plot(r.Step, r.Time, surrogateLevels(r)); err != nil {
				return err
			}
		}
		if err := rp.checkpoint(r.Step, r.Time, r.LastDt, surrogateLevels(r)); err != nil {
			return err
		}
	}
	acc.sample("surrogate.hierarchy_ms", float64(rp.solveNS)/1e6)
	return nil
}

// stepHydro drives a filesystem-less sim.Sim through its exported
// Advance / Regrid loop. The pivot cases carry no fault plan, so the
// policy hooks are not replayed here.
func (rp *caseReplay) stepHydro() error {
	if !rp.c.Mitigate.Zero() {
		return fmt.Errorf("hydro replay does not model mitigation (case %s)", rp.c.Name)
	}
	strat, err := distStrategy(rp.c)
	if err != nil {
		return err
	}
	opts := sim.DefaultOptions()
	opts.Dist = strat
	acc := rp.tc.acc

	var s *sim.Sim
	rp.solveNS += rp.span("engine.solve", func() { s, err = sim.New(rp.cfg, opts, nil) })
	if err != nil {
		return err
	}
	plot := func() error {
		var spec plotfile.Spec
		rp.solveNS += rp.span("sim.plotspec", func() { spec = s.PlotSpec() })
		return rp.plot(s.Step, s.Time, spec.Levels)
	}
	if s.ShouldPlot() {
		if err := plot(); err != nil {
			return err
		}
	}
	for s.Step < rp.cfg.MaxStep {
		if rp.cfg.StopTime > 0 && s.Time >= rp.cfg.StopTime {
			break
		}
		for _, lev := range s.Levels {
			acc.add("hydro.cell_updates", 2*float64(lev.BA.NumPts()))
		}
		ns := rp.span("engine.solve", s.Advance)
		rp.solveNS += ns
		acc.sample("sim.advance_ms", float64(ns)/1e6)
		rp.advanceClocks()
		if rp.cfg.RegridInt > 0 && s.Step%rp.cfg.RegridInt == 0 && rp.cfg.MaxLevel > 0 {
			ns := rp.span("engine.solve", func() { err = s.Regrid() })
			if err != nil {
				return err
			}
			rp.solveNS += ns
			acc.sample("sim.regrid_ms", float64(ns)/1e6)
		}
		if s.ShouldPlot() {
			if err := plot(); err != nil {
				return err
			}
		}
	}
	return nil
}

// spmdReplay times an SPMD world of n rank goroutines meeting at the
// given number of barriers: one for a plotfile burst, two a dump for a
// whole MACSio run.
func spmdReplay(n, barriers int) (ns int64, msgs int64, err error) {
	w := mpisim.NewWorld(n)
	t0 := time.Now()
	err = w.Run(func(c *mpisim.Comm) error {
		for b := 0; b < barriers; b++ {
			c.Barrier()
		}
		return nil
	})
	return time.Since(t0).Nanoseconds(), w.Stats().Messages, err
}

// priceReplay re-issues every captured burst against a fresh filesystem
// built from c — BeginBurst, one Mkdir or WriteSize per record in
// rank-major order, EndBurst — and returns each burst's time plus the
// bytes written. Nothing consumes the records (RetainNone drops them).
// With spanned set, each burst runs under an iosim.price span that is a
// child of the burst's plotfile.write span; spans[b] is its ID.
func (rp *caseReplay) priceReplay(c campaign.Case, spanned bool) (perBurst []int64, spans []int, bytes int64, err error) {
	cfg := c.FSConfig(rp.topo)
	cfg.RetainLedger = iosim.RetainNone
	fs := iosim.New(cfg, "")
	n := rp.cfg.NProcs
	perBurst = make([]int64, len(rp.bursts))
	spans = make([]int, len(rp.bursts))
	for b, bi := range rp.bursts {
		if bi.advanced > 0 {
			for rk := 0; rk < n; rk++ {
				fs.AdvanceClock(rk, bi.advanced)
			}
		}
		if bi.remapped {
			if err := fs.Retarget(bi.retarget); err != nil {
				return nil, nil, 0, err
			}
		}
		spans[b] = -1
		if spanned {
			spans[b] = rp.tc.tr.begin("iosim.price", rp.tc.op, bi.span)
		}
		t0 := time.Now()
		fs.BeginBurst(n)
		for _, r := range bi.recs {
			if r.Dir {
				err = fs.Mkdir(r.Rank, r.Path, r.Labels)
			} else {
				_, err = fs.WriteSize(r.Rank, r.Path, r.Bytes, r.Labels)
			}
			if err != nil {
				return nil, nil, 0, err
			}
		}
		fs.EndBurst()
		perBurst[b] = time.Since(t0).Nanoseconds()
		rp.tc.tr.end(spans[b])
	}
	return perBurst, spans, fs.TotalBytes(), nil
}

// replayCase replays one case's layers under spans and checks the
// replay against the real output. opNS is the real op's duration.
func replayCase(tc *traceCtx, root int, opNS int64, c campaign.Case, topo bool, real campaign.CaseOutput) error {
	rp := newCaseReplay(tc, root, c, topo)
	acc := tc.acc
	var err error
	switch real.Result.Engine {
	case campaign.EngineSurrogate:
		err = rp.stepSurrogate()
		if opNS > 0 {
			acc.sample("surrogate.share", float64(rp.solveNS)/float64(opNS))
		}
	case campaign.EngineHydro:
		err = rp.stepHydro()
		if opNS > 0 {
			acc.sample("sim.solve_share", float64(rp.solveNS)/float64(opNS))
		}
	default:
		err = fmt.Errorf("unknown engine %q", real.Result.Engine)
	}
	if err != nil {
		return err
	}
	rp.fs.FlushConsumers()
	if len(rp.cap.cur) > 0 {
		return fmt.Errorf("replay left %d records outside any burst", len(rp.cap.cur))
	}

	// mpisim: the SPMD spin-up each burst pays, as a child of its write.
	nprocs := rp.cfg.NProcs
	acc.set("mpisim.goroutines", float64(nprocs))
	for _, bi := range rp.bursts {
		id := tc.tr.begin("mpisim.spmd", tc.op, bi.span)
		ns, msgs, err := spmdReplay(nprocs, 1)
		tc.tr.end(id)
		if err != nil {
			return err
		}
		acc.sample("mpisim.spmd_us_per_burst", float64(ns)/1e3)
		acc.sample("mpisim.msgs_per_burst", float64(msgs))
	}

	// iosim pricing, with the case's fault plan and (when it has one)
	// without; the difference is what the fault seam costs.
	with, priceSpans, bytes, err := rp.priceReplay(c, true)
	if err != nil {
		return err
	}
	var without []int64
	if c.Faults != nil {
		clean := c
		clean.Faults, clean.Mitigate = nil, nil
		if without, _, _, err = rp.priceReplay(clean, false); err != nil {
			return err
		}
	}
	var writes int
	var faultNS int64
	for b, bi := range rp.bursts {
		if without != nil {
			tc.tr.derive("faults.price", tc.op, priceSpans[b], with[b]-without[b])
			faultNS += with[b] - without[b]
		}
		writes += len(bi.recs)
		if len(bi.recs) > 0 {
			acc.sample("iosim.price_ns_per_write", float64(with[b])/float64(len(bi.recs)))
		}
	}
	acc.add("iosim.writes", float64(writes))
	acc.add("iosim.bytes", float64(bytes))
	if without != nil && writes > 0 {
		acc.sample("faults.price_ns_per_write", float64(faultNS)/float64(writes))
	}

	// iosim fold: the streaming reduction the executor attaches.
	fold := iosim.NewCharacterizeFold()
	var bursts []iosim.BurstStat
	var profile iosim.Characterization
	foldNS := rp.span("iosim.fold", func() {
		for _, bi := range rp.bursts {
			for _, r := range bi.recs {
				fold.Consume(r)
			}
		}
		fold.Flush()
		bursts = fold.Bursts()
		profile = fold.Profile()
	})
	if writes > 0 {
		acc.sample("iosim.fold_ns_per_record", float64(foldNS)/float64(writes))
	}
	for _, b := range real.Bursts {
		acc.add("iosim.burst_wall_s", b.WallSeconds)
		acc.add("iosim.stall_s", b.StallSeconds)
	}

	// faults and resilience: counts from the run, and one Observe over
	// the finished run's whole event stream.
	acc.add("faults.events", float64(len(rp.fs.FaultEvents())))
	acc.add("faults.retries", float64(real.Profile.Retries))
	if eng := resilience.ForFileSystem(c.Mitigate, rp.fs, nprocs); eng != nil {
		ns := rp.span("resilience.observe", func() { eng.Observe(rp.fs) })
		acc.sample("resilience.observe_ms", float64(ns)/1e6)
	}
	if m := real.Result.Mitigation; m != nil {
		acc.add("resilience.checkpoints", float64(m.AdaptiveCheckpoints))
		acc.add("resilience.quarantined", float64(m.QuarantinedTargets))
	}

	// The replay must have produced what the program produced.
	switch {
	case rp.nPlots != real.Result.NPlots:
		err = fmt.Errorf("%d plots, real op wrote %d", rp.nPlots, real.Result.NPlots)
	case !reflect.DeepEqual(rp.records, real.Result.Records):
		err = fmt.Errorf("plot records differ from the real op's (%d vs %d)", len(rp.records), len(real.Result.Records))
	case bytes != real.Profile.TotalBytes:
		err = fmt.Errorf("pricing replay wrote %d bytes, real op %d", bytes, real.Profile.TotalBytes)
	case !reflect.DeepEqual(bursts, real.Bursts):
		err = fmt.Errorf("burst statistics differ from the real op's")
	case !reflect.DeepEqual(profile, real.Profile):
		err = fmt.Errorf("I/O profile differs from the real op's")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "amrio-bench: replay of %s diverged: %v\n", c.Name, err)
		tc.failed++
	}
	return nil
}

// sweepNSPerCell times hydro.SweepX + SweepY on one 128² FAB holding
// the Sedov initial condition, per cell update.
func sweepNSPerCell() float64 {
	const n = 128
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(n-1, n-1))
	geom := grid.NewGeom(dom, [2]float64{0, 0}, [2]float64{1, 1})
	ba := amr.NewBoxArray([]grid.Box{dom})
	mf := amr.NewMultiFab(ba, amr.DistributionMapping{Owner: []int{0}}, hydro.NCons, 2)
	b := sedov.Default()
	hydro.SedovIC(mf, geom, b.Gamma, b.Rho0, b.P0, b.E, 0.02, [2]float64{0.5, 0.5})
	f := mf.FABs[0]
	const reps = 4
	dt, h := 1e-6, geom.CellSize[0]
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		hydro.SweepX(f, dt, h, b.Gamma)
		hydro.SweepY(f, dt, h, b.Gamma)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps*2*n*n)
}

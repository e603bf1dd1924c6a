package main

import (
	"fmt"
	"time"

	"amrproxyio/internal/campaign"
	"amrproxyio/internal/core"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/stats"
)

// caseRunner drives the four workloads whose op is one
// Executor.RunCase: sweep-cold, sweep-warm, summit-stack, paper-pivot.
// They differ only in the declared fields below.
type caseRunner struct {
	cases []campaign.Case
	// order[i] is the case op i runs; ops past len(order) wrap.
	order      []int
	opsPerPass int
	cacheCap   int
	topo       bool
	// warm pre-fills the executor in set-up and keeps it for every
	// pass, so every op is a hit; otherwise each pass gets a fresh
	// executor, so every op is a miss.
	warm bool
	// warmup is how many cases set-up runs on a scratch executor so
	// lazy initialization and the amr plan cache are paid before timing.
	warmup []campaign.Case
	// pivot follows each op with Translate and a MACSio replay, off the
	// op clock, and carries proxy_err_pct.
	pivot bool
	// hitReps is how many warm repeats of each traced op feed
	// campaign.hit_us.
	hitReps int

	exec *campaign.Executor
	last campaign.CaseOutput
	cur  campaign.Case

	mape map[string]float64 // pivot: per case, replay error in percent
	cold map[string]string  // warm: per case, digest of the cold output set-up cached

	// tracedHits and tracedMisses count how the traced ops themselves
	// (not their warm repeats) fared in the executor.
	tracedHits, tracedMisses uint64
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func newSweepCold(seed int64, sz sizes) (runner, error) {
	cases := sweepCasesFor(seed, sz.sweepCases)
	return &caseRunner{
		cases: cases, order: identity(len(cases)), opsPerPass: len(cases),
		cacheCap: 2048, warmup: cases[:min(32, len(cases))], hitReps: 8,
	}, nil
}

func newSweepWarm(seed int64, sz sizes) (runner, error) {
	cases := sweepCasesFor(seed, sz.sweepCases)
	return &caseRunner{
		cases: cases, order: identity(len(cases)), opsPerPass: len(cases) * sz.warmSweeps,
		cacheCap: 2048, warm: true, hitReps: 32,
	}, nil
}

func newSummitStack(seed int64, sz sizes) (runner, error) {
	cases := summitCases(seed, sz.summitSteps)
	// Ops visit the 16-case cross product in a fixed stride-7 order, so
	// the first four — all the traced and memory passes run — already
	// cover both storage stacks, both aggregation layouts and both
	// fault arms.
	order := make([]int, len(cases))
	for i := range order {
		order[i] = i * 7 % len(cases)
	}
	return &caseRunner{
		cases: cases, order: order, opsPerPass: len(cases),
		cacheCap: 64, topo: true, warmup: cases[:1], hitReps: 8,
	}, nil
}

func newPaperPivot(_ int64, sz sizes) (runner, error) {
	cases := pivotCases(sz.pivotDiv, sz.pivotVariant)
	return &caseRunner{
		cases: cases, order: identity(len(cases)), opsPerPass: len(cases),
		cacheCap: 16, pivot: true, hitReps: 8, mape: map[string]float64{},
		// A small hydro case of the same family warms the solver paths.
		warmup: pivotCases(4*sz.pivotDiv, 1),
	}, nil
}

func (r *caseRunner) inputs() any { return r.cases }
func (r *caseRunner) ops() int    { return r.opsPerPass }
func (r *caseRunner) close()      {}

func (r *caseRunner) caseAt(i int) campaign.Case { return r.cases[r.order[i%len(r.order)]] }

func (r *caseRunner) setup() error {
	scratch := campaign.NewExecutor(r.cacheCap, r.topo)
	for _, c := range r.warmup {
		if _, err := scratch.RunCase(c, 0); err != nil {
			return err
		}
	}
	r.exec = campaign.NewExecutor(r.cacheCap, r.topo)
	if r.warm {
		r.cold = make(map[string]string, len(r.cases))
		for _, c := range r.cases {
			out, err := r.exec.RunCase(c, 0)
			if err != nil {
				return err
			}
			if r.cold[c.Name], err = caseDigest(out); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *caseRunner) beginPass() error {
	if !r.warm {
		r.exec = campaign.NewExecutor(r.cacheCap, r.topo)
	}
	return nil
}

func (r *caseRunner) op(i int) (err error) {
	r.cur = r.caseAt(i)
	r.last, err = r.exec.RunCase(r.cur, 0)
	return err
}

// verify: the hit path runs at a few hundred thousand ops/s, far more
// than can be hashed, so sweep-warm checks the whole case list once (the
// first sweep of the first pass) and a rotating hundredth afterwards.
func (r *caseRunner) verify(pass, i int) bool {
	if !r.warm {
		return true
	}
	n := len(r.cases)
	return (pass == 0 && i < n) || i%n == (pass*37+i/n)%n
}

func (r *caseRunner) check(v *verifier) int {
	out, c := r.last, r.cur
	bad := 0
	if out.Cached != r.warm {
		bad++ // a hit where a miss was due, or the reverse
	}
	if out.Result.NPlots != c.MaxStep/c.PlotInt+1 && c.Mitigate.Zero() {
		bad++
	}
	digest, err := caseDigest(out)
	if err != nil || !v.check(c.Name, out.Fingerprint, digest) {
		bad++
	}
	if r.warm && digest != r.cold[c.Name] {
		bad++ // the warm copy must hash like the cold one it was cached from
	}
	if r.pivot {
		if err := r.proxyError(c, out); err != nil {
			bad++
		}
	}
	return bad
}

// pivotReplay is the paper's loop closed for one pivot case: the
// measured run translated into a MACSio invocation fitted on file
// bytes, that invocation run, and the bytes each dump wrote compared
// with the bytes each plot wrote.
type pivotReplay struct {
	cfg         macsio.Config
	records     int
	mapePct     float64
	translateUS float64
	runMS       float64
}

func replayPivot(c campaign.Case, out campaign.CaseOutput) (pivotReplay, error) {
	var p pivotReplay
	opts := core.DefaultTranslateOptions()
	opts.Match = core.MatchFileBytes
	t0 := time.Now()
	tr, err := core.Translate(c.Inputs(), out.Result.Records, opts)
	p.translateUS = usSince(t0)
	if err != nil {
		return p, err
	}
	t0 = time.Now()
	recs, err := macsio.Run(iosim.New(iosim.DefaultConfig(), ""), tr.MACSio)
	p.runMS = usSince(t0) / 1e3
	if err != nil {
		return p, err
	}
	p.cfg, p.records = tr.MACSio, len(recs)
	_, measured := core.PerStepBytes(out.Result.Records)
	perDump := macsio.BytesPerStep(recs)
	if len(perDump) != len(measured) {
		return p, fmt.Errorf("%s: %d dumps replay %d plots", c.Name, len(perDump), len(measured))
	}
	meas := make([]float64, len(measured))
	prox := make([]float64, len(measured))
	for k, b := range measured {
		meas[k] = float64(b)
		prox[k] = float64(perDump[k])
	}
	p.mapePct = stats.MAPE(meas, prox)
	return p, nil
}

// proxyError records a pivot case's replay error, once per case.
func (r *caseRunner) proxyError(c campaign.Case, out campaign.CaseOutput) error {
	if _, done := r.mape[c.Name]; done {
		return nil
	}
	p, err := replayPivot(c, out)
	if err == nil {
		r.mape[c.Name] = p.mapePct
	}
	return err
}

func (r *caseRunner) finish(res *passResults) {
	if n := r.tracedHits + r.tracedMisses; n > 0 {
		st := r.exec.Stats()
		res.layers.set("campaign.hit_ratio", float64(r.tracedHits)/float64(n))
		res.layers.set("campaign.evictions", float64(st.Misses-st.Errors)-float64(st.Size))
	}
	if !r.pivot || len(r.mape) < len(r.cases) {
		return
	}
	for _, c := range r.cases {
		if e := r.mape[c.Name]; e > res.proxyErrPct {
			res.proxyErrPct = e
		}
	}
	res.hasProxyErr = true
}

// meanUS times reps calls of fn and returns the mean in microseconds.
func meanUS(reps int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps)
}

func (r *caseRunner) trace(i int, tc *traceCtx) error {
	c := r.caseAt(i)
	acc := tc.acc
	var out campaign.CaseOutput
	root, opNS, err := tc.realOp(func() (err error) {
		out, err = r.exec.RunCase(c, 0)
		return err
	})
	if err != nil {
		tc.failed++
		return nil
	}
	if out.Cached {
		r.tracedHits++
	} else {
		r.tracedMisses++
	}
	r.cur, r.last = c, out
	if r.check(tc.ver) > 0 {
		tc.failed++
	}

	// The campaign layer: what every RunCase pays before and around
	// the simulation.
	id := tc.tr.begin("campaign.validate", tc.op, root)
	err = c.Validate()
	tc.tr.end(id)
	if err != nil {
		return err
	}
	id = tc.tr.begin("campaign.fingerprint", tc.op, root)
	_, err = campaign.Fingerprint(c, r.topo)
	tc.tr.end(id)
	if err != nil {
		return err
	}
	acc.sample("campaign.validate_us", meanUS(16, func() { _ = c.Validate() }))
	acc.sample("campaign.fingerprint_us", meanUS(16, func() { _, _ = campaign.Fingerprint(c, r.topo) }))
	for k := 0; k < r.hitReps; k++ {
		t0 := time.Now()
		hit, err := r.exec.RunCase(c, 0)
		us := usSince(t0)
		if err != nil || !hit.Cached {
			tc.failed++
			continue
		}
		acc.sample("campaign.hit_us", us)
	}
	if r.warm {
		// Every layer below is bypassed on a hit; their metrics stay 0.
		return nil
	}

	// Miss overhead: the same case run cold without the executor —
	// campaign.Run plus the fold on a hand-built filesystem. It is a
	// second cold copy of the output, so it is digest-checked too.
	if out.Result.Engine == campaign.EngineSurrogate {
		t0 := time.Now()
		bare, err := runBare(c, r.topo)
		ns := time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		acc.sample("campaign.miss_overhead_us", float64(opNS-ns)/1e3)
		bare.Fingerprint = out.Fingerprint
		r.last = bare
		if r.check(tc.ver) > 0 {
			tc.failed++
		}
	}
	if r.pivot {
		r.tracePivot(i, tc, c, out)
	}
	return replayCase(tc, root, opNS, c, r.topo, out)
}

// runBare is what Executor.simulate does, spelled out from exported
// API: a fresh filesystem with the characterization fold attached, one
// campaign.Run, and the fold's reductions.
func runBare(c campaign.Case, topo bool) (campaign.CaseOutput, error) {
	char := iosim.NewCharacterizeFold()
	fs := iosim.New(c.FSConfig(topo), "")
	fs.Attach(char)
	res, err := campaign.Run(c, fs)
	if err != nil {
		return campaign.CaseOutput{}, err
	}
	fs.FlushConsumers()
	return campaign.CaseOutput{Result: res, Bursts: char.Bursts(), Profile: char.Profile()}, nil
}

// tracePivot times the paper-loop layers for one pivot case: Translate,
// the MACSio replay, and — once — the hydro sweep kernel.
func (r *caseRunner) tracePivot(i int, tc *traceCtx, c campaign.Case, out campaign.CaseOutput) {
	acc := tc.acc
	p, err := replayPivot(c, out)
	if err != nil {
		tc.failed++
		return
	}
	acc.sample("core.translate_us", p.translateUS)
	acc.sample("macsio.run_ms", p.runMS)
	acc.sample("macsio.dump_ms", p.runMS/float64(p.cfg.NumDumps))
	acc.sample("macsio.rootmeta_us", meanUS(16, func() { _ = macsio.EncodeRootMeta(p.cfg, 0) }))
	acc.add("macsio.records", float64(p.records))
	if p.mapePct > acc.fixed["core.mape_pct"] {
		acc.set("core.mape_pct", p.mapePct)
	}
	if i == 0 {
		acc.set("hydro.sweep_ns_per_cell", sweepNSPerCell())
	}
}

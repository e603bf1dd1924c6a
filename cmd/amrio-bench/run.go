package main

import (
	"fmt"
	"runtime"
	"time"
)

// runner is one workload instance: inputs generated from a seed plus
// the state its ops run against. The generic passes below drive it.
type runner interface {
	// inputs returns the generated inputs in a JSON-encodable form.
	inputs() any
	// setup builds what the passes need — executors, the server,
	// cache pre-fill, a warm-up slice — replacing any earlier state.
	// Its wall time, plus input generation and golden load, is setup_s.
	setup() error
	// ops is the number of ops in one pass.
	ops() int
	// beginPass prepares a pass off the clock (a fresh executor where
	// the workload wants every op to miss).
	beginPass() error
	// op runs op i of the current pass. The call is what is timed; the
	// result stays with the runner until the next op.
	op(i int) error
	// verify reports whether op i of timed pass p should be checked;
	// high-rate workloads check a sample.
	verify(pass, i int) bool
	// check verifies the last op's outputs off the clock and returns
	// how many failed.
	check(v *verifier) int
	// trace runs op i under spans, replays its layers, and feeds the
	// per-layer accumulator.
	trace(i int, tc *traceCtx) error
	// finish adds workload-level numbers (exact end-to-end values,
	// cache statistics) once the passes are done.
	finish(res *passResults)
	close()
}

// runOptions selects which passes run and for how long.
type runOptions struct {
	seconds   float64 // timed-pass budget
	timed     bool
	traced    bool
	memory    bool
	sz        sizes
	goldenDir string
	traceDir  string
	// shared spans workloads in suite mode (see verifier).
	shared map[string]string
	// updateGolden writes the digests seen instead of checking them.
	updateGolden bool
	setupReps    int
}

// passResults is what the passes measured, before it is shaped into
// metric records.
type passResults struct {
	setupS      []float64
	passOpsPerS []float64
	passP50     []float64
	passTail    []float64
	latMS       []float64 // pooled over timed passes
	timedPasses int
	peakHeapMB  float64
	memoryOps   int
	tracedOps   int
	attempted   int
	failed      int
	// proxyErrPct is set by paper-pivot only.
	proxyErrPct float64
	hasProxyErr bool
	layers      *layerAcc
	spans       []span
}

// heapInUse forces a collection and returns the live heap. It collects
// twice: sync.Pool contents and finalizable objects survive one cycle,
// and would otherwise count as live in whichever reading came first.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runWorkload generates the workload's inputs from seed, sets it up,
// runs the selected passes, verifies outputs, and returns its record.
func runWorkload(def *workloadDef, seed int64, opt runOptions) (workloadRecord, error) {
	rec := workloadRecord{Name: def.name, Why: def.why, Loop: def.loop}
	res := &passResults{layers: newLayerAcc()}

	// Pre-workload heap baseline, before anything of this workload
	// exists.
	baseline := heapInUse()

	// Set-up, several times over so its median is steady: input
	// generation, golden load, then the runner's own set-up.
	var (
		r   runner
		ver *verifier
	)
	reps := opt.setupReps
	if reps < 1 {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = def.new(seed, opt.sz); err != nil {
			return rec, fmt.Errorf("%s: generate: %w", def.name, err)
		}
		sha, _, err := inputsDigest(r.inputs())
		if err != nil {
			return rec, fmt.Errorf("%s: %w", def.name, err)
		}
		var golden map[string]string
		if !opt.updateGolden {
			if golden, err = loadGolden(opt.goldenDir, def.name, sha); err != nil {
				return rec, fmt.Errorf("%s: %w", def.name, err)
			}
		}
		if err := r.setup(); err != nil {
			return rec, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		rec.InputsSHA256 = sha
		rec.Golden = "cross-checked"
		if golden != nil {
			rec.Golden = "matched"
		}
		ver = newVerifier(golden, opt.shared)
	}
	defer r.close()
	rec.SetupReps = reps
	rec.OpsPerPass = r.ops()

	// The memory pass goes first, while the harness itself holds next
	// to nothing: the timed passes keep millions of latency samples.
	if opt.memory {
		if err := memoryPass(r, ver, min(def.memoryOps, r.ops()), baseline, res); err != nil {
			return rec, fmt.Errorf("%s: memory pass: %w", def.name, err)
		}
	}
	if opt.timed {
		if err := timedPasses(r, ver, opt.seconds, def.tail(), res); err != nil {
			return rec, fmt.Errorf("%s: timed pass: %w", def.name, err)
		}
	}
	if opt.traced {
		if err := tracedPass(r, ver, min(def.tracedOps, r.ops()), res); err != nil {
			return rec, fmt.Errorf("%s: traced pass: %w", def.name, err)
		}
		if opt.traceDir != "" {
			path, err := writeTrace(opt.traceDir, def.name, res.spans)
			if err != nil {
				return rec, err
			}
			rec.Trace = path
		}
	}
	r.finish(res)

	if opt.updateGolden {
		g := goldenFile{Workload: def.name, Seed: seed, InputsSHA256: rec.InputsSHA256, Outputs: ver.seen}
		if err := writeGolden(opt.goldenDir, g); err != nil {
			return rec, fmt.Errorf("%s: write golden: %w", def.name, err)
		}
		rec.Golden = "written"
	}
	shapeRecord(&rec, def, res)
	return rec, nil
}

// timedPasses runs whole passes, tracing off and no forced GC, until
// the budget is spent: a further pass starts only while the passes so
// far suggest it ends within 5 % of the budget. At least one runs.
func timedPasses(r runner, ver *verifier, seconds, tailLimit float64, res *passResults) error {
	n := r.ops()
	lat := make([]float64, 0, n)
	runtime.GC()
	start := time.Now()
	for pass := 0; ; pass++ {
		if err := r.beginPass(); err != nil {
			return err
		}
		lat = lat[:0]
		var busy time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			err := r.op(i)
			d := time.Since(t0)
			busy += d
			lat = append(lat, d.Seconds()*1e3)
			res.attempted++
			if err != nil {
				res.failed++
				continue
			}
			if r.verify(pass, i) {
				if bad := r.check(ver); bad > 0 {
					res.failed++
				}
			}
		}
		asc := sorted(lat)
		res.passOpsPerS = append(res.passOpsPerS, float64(n)/busy.Seconds())
		res.passP50 = append(res.passP50, percentile(asc, 50))
		res.passTail = append(res.passTail, percentile(asc, tailPercentile(len(asc), tailLimit)))
		res.latMS = append(res.latMS, lat...)
		res.timedPasses++
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(pass+1) > seconds*1.05 {
			return nil
		}
	}
}

// memoryPass runs the first k ops with a forced collection after each,
// the op's output still reachable, and keeps the largest live heap
// above the pre-workload baseline.
func memoryPass(r runner, ver *verifier, k int, baseline uint64, res *passResults) error {
	if err := r.beginPass(); err != nil {
		return err
	}
	var peak uint64
	for i := 0; i < k; i++ {
		err := r.op(i)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		if live := heapInUse(); live > baseline && live-baseline > peak {
			peak = live - baseline
		}
		if bad := r.check(ver); bad > 0 {
			res.failed++
		}
	}
	res.memoryOps = k
	res.peakHeapMB = float64(peak) / (1 << 20)
	return nil
}

// tracedPass runs the first k ops once untraced — the same ops the
// traced ones are compared with for bench.trace_overhead_pct — and then
// under spans with layer replays.
func tracedPass(r runner, ver *verifier, k int, res *passResults) error {
	if err := r.beginPass(); err != nil {
		return err
	}
	var plain time.Duration
	for i := 0; i < k; i++ {
		t0 := time.Now()
		err := r.op(i)
		plain += time.Since(t0)
		res.attempted++
		if err != nil {
			res.failed++
		}
	}
	if err := r.beginPass(); err != nil {
		return err
	}
	tc := &traceCtx{tr: newTracer(), acc: res.layers, ver: ver}
	for i := 0; i < k; i++ {
		tc.op = i
		res.attempted++
		if err := r.trace(i, tc); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		res.failed += tc.takeFailed()
	}
	res.spans = tc.tr.spans
	res.tracedOps = k

	// Per-op shares and the unattributed remainder, from the spans.
	var traced int64
	for _, b := range breakdown(res.spans) {
		traced += b.opNS
		if b.opNS <= 0 {
			continue
		}
		var attributed int64
		for _, ns := range b.byName {
			attributed += ns
		}
		op := float64(b.opNS)
		// Negative when the replays cost more than the op they mirror
		// (each replay pays its own set-up; the op pays it once).
		res.layers.sample("campaign.unattributed_share", 1-float64(attributed)/op)
		res.layers.sample("plotfile.self_share", float64(b.byName["plotfile.write"])/op)
		res.layers.sample("iosim.drain_share", float64(b.byName["iosim.fold"])/op)
	}
	if plain > 0 {
		res.layers.set("bench.trace_overhead_pct", 100*(float64(traced)-float64(plain.Nanoseconds()))/float64(plain.Nanoseconds()))
	}
	return nil
}

// shapeRecord turns what the passes measured into metric records.
func shapeRecord(rec *workloadRecord, def *workloadDef, res *passResults) {
	rec.TimedPasses = res.timedPasses
	rec.TracedOps = res.tracedOps
	rec.MemoryOps = res.memoryOps
	rec.Attempted = res.attempted
	rec.Failed = res.failed

	add := func(name string, value float64, pass string, fill func(*metricRecord)) {
		d := metricByName(endToEnd, name)
		m := metricRecord{Name: d.name, Unit: d.unit, Better: d.better, Value: value,
			Pass: pass, Exact: d.exact, Bound: d.bound, AbsBound: d.absBound}
		if fill != nil {
			fill(&m)
		}
		rec.EndToEnd = append(rec.EndToEnd, m)
	}
	withQuartiles := func(xs []float64) func(*metricRecord) {
		return func(m *metricRecord) {
			m.Samples = len(xs)
			if q1, q3, ok := quartiles(xs); ok {
				m.Q1, m.Q3 = &q1, &q3
			}
		}
	}
	if len(res.setupS) > 0 {
		add("setup_s", median(res.setupS), passSetup, withQuartiles(res.setupS))
	}
	if res.timedPasses > 0 {
		asc := sorted(res.latMS)
		add("ops_per_s", median(res.passOpsPerS), passTimed, withQuartiles(res.passOpsPerS))
		add("lat_p50_ms", percentile(asc, 50), passTimed, func(m *metricRecord) {
			withQuartiles(res.passP50)(m)
			m.Samples, m.Percentile = len(asc), 50
		})
		tail := tailPercentile(len(asc), def.tail())
		add("lat_p99_ms", percentile(asc, tail), passTimed, func(m *metricRecord) {
			withQuartiles(res.passTail)(m)
			m.Samples, m.Percentile = len(asc), tail
		})
	}
	if res.memoryOps > 0 {
		add("peak_heap_mb", res.peakHeapMB, passMemory, func(m *metricRecord) { m.Samples = res.memoryOps })
	}
	if res.attempted > 0 {
		add("failed_ops", float64(res.failed)/float64(res.attempted), "all", func(m *metricRecord) { m.Samples = res.attempted })
	}
	if res.hasProxyErr {
		add("proxy_err_pct", res.proxyErrPct, passTimed, nil)
	}
	if res.tracedOps > 0 {
		rec.PerLayer = res.layers.records()
	}
}

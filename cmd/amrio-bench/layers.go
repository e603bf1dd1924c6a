package main

import "runtime"

// layerAcc gathers the traced pass's per-layer numbers. Timings are
// sampled (one or more per op) and reported as medians with quartiles;
// counts and simulated values are summed over the traced ops and must
// repeat exactly.
type layerAcc struct {
	samples map[string][]float64
	totals  map[string]float64
	fixed   map[string]float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		samples: map[string][]float64{},
		totals:  map[string]float64{},
		fixed:   map[string]float64{},
	}
}

// sample records one measurement of a timing or ratio.
func (a *layerAcc) sample(name string, v float64) {
	a.samples[name] = append(a.samples[name], v)
}

// add accumulates a count or simulated quantity over the traced ops.
func (a *layerAcc) add(name string, v float64) { a.totals[name] += v }

// set fixes a metric's value outright.
func (a *layerAcc) set(name string, v float64) { a.fixed[name] = v }

// records shapes every declared per-layer metric; a metric nothing fed
// reports 0, which is how a bypassed layer shows.
func (a *layerAcc) records() []metricRecord {
	// The hit tail is a percentile of the same samples as the median.
	if hits := a.samples["campaign.hit_us"]; len(hits) > 0 {
		asc := sorted(hits)
		a.fixed["campaign.hit_p99_us"] = percentile(asc, tailPercentile(len(asc), 99))
	}
	out := make([]metricRecord, 0, len(perLayer))
	for _, d := range perLayer {
		m := metricRecord{Name: d.name, Unit: d.unit, Better: d.better, Pass: passTraced, Exact: d.exact}
		switch {
		case hasKey(a.fixed, d.name):
			m.Value = a.fixed[d.name]
		case hasKey(a.totals, d.name):
			m.Value = a.totals[d.name]
		case len(a.samples[d.name]) > 0:
			xs := a.samples[d.name]
			m.Value = median(xs)
			m.Samples = len(xs)
			if q1, q3, ok := quartiles(xs); ok {
				m.Q1, m.Q3 = &q1, &q3
			}
		}
		out = append(out, m)
	}
	return out
}

func hasKey(m map[string]float64, k string) bool {
	_, ok := m[k]
	return ok
}

// traceCtx is what a runner's trace method works with: the tracer, the
// accumulator, the verifier, and the current op's identity.
type traceCtx struct {
	tr     *tracer
	acc    *layerAcc
	ver    *verifier
	op     int
	failed int
}

// realOp runs the op itself under the root "op" span and samples what
// it allocated, from runtime.MemStats deltas read outside the span.
func (tc *traceCtx) realOp(fn func() error) (root int, ns int64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root = tc.tr.begin("op", tc.op, -1)
	err = fn()
	ns = tc.tr.end(root)
	runtime.ReadMemStats(&m1)
	if err == nil {
		tc.acc.sample("campaign.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		tc.acc.sample("campaign.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs))
	}
	return root, ns, err
}

func (tc *traceCtx) takeFailed() int {
	n := tc.failed
	tc.failed = 0
	return n
}

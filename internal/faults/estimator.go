package faults

// MTBFEstimator is the online mean-time-between-failures estimator the
// resilience policy engine and the post-hoc Analyze share. It treats
// rank interrupts as an exponential process observed over a censored
// horizon and reports the maximum-likelihood mean: horizon / count.
// (The final inter-failure gap is right-censored — the run ended before
// the next death — so dividing the whole observed horizon by the death
// count is the textbook censored-exponential MLE, not the naive mean of
// closed gaps.)
//
// The zero value is ready to use. Feed interrupt times with Observe and
// advance the observation window with AdvanceTo; both are monotone in
// effect, so re-feeding a prefix-stable schedule (Plan.Interrupts) from
// scratch each observation is deterministic.
type MTBFEstimator struct {
	n       int
	horizon float64
}

// Observe records one rank interrupt at simulated time t, extending the
// observation horizon to at least t.
func (e *MTBFEstimator) Observe(t float64) {
	e.n++
	e.AdvanceTo(t)
}

// AdvanceTo extends the observation horizon to now (no-op when the
// horizon is already past now).
func (e *MTBFEstimator) AdvanceTo(now float64) {
	if now > e.horizon {
		e.horizon = now
	}
}

// Estimate returns the censored-MLE mean time between failures, or 0
// before the first interrupt (no estimate — callers must not retime
// checkpoints on zero evidence).
func (e *MTBFEstimator) Estimate() float64 {
	if e.n == 0 {
		return 0
	}
	return e.horizon / float64(e.n)
}

package faults

import (
	"math/rand"
	"sort"
)

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
// advance the observation window with AdvanceTo. An online observer that
// looks again and again takes Schedule.Estimator instead, which holds
// the same state without re-feeding the schedule.
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

// Schedule is Plan.Interrupts for an online reader that asks again and
// again: the explicit rank-interrupt starts are sorted once, and the
// MTBF draws are generated lazily from Seed, only as far as the largest
// horizon asked for so far. The draws are the exact sequence Interrupts
// materializes, so both views agree on every prefix.
type Schedule struct {
	explicit []float64 // rank-interrupt starts, ascending
	mtbf     float64
	seed     int64
	rng      *rand.Rand // nil until the first draw
	draws    []float64  // MTBF draws so far, ascending
	next     float64    // the first draw not yet in draws
}

// Schedule returns the plan's interrupt schedule with nothing drawn yet.
// A nil plan schedules no interrupts.
func (p *Plan) Schedule() *Schedule {
	s := &Schedule{}
	if p == nil {
		return s
	}
	for _, e := range p.Events {
		if e.Kind == KindRankInterrupt {
			s.explicit = append(s.explicit, e.Start)
		}
	}
	sort.Float64s(s.explicit)
	s.mtbf, s.seed = p.MTBFSeconds, p.Seed
	return s
}

// extend draws until every MTBF interrupt at or before horizon is in
// s.draws. Draws need a positive MTBF and a positive horizon.
func (s *Schedule) extend(horizon float64) {
	if s.mtbf <= 0 || horizon <= 0 {
		return
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
		s.next = s.rng.ExpFloat64() * s.mtbf
	}
	for ; s.next <= horizon; s.next += s.rng.ExpFloat64() * s.mtbf {
		s.draws = append(s.draws, s.next)
	}
}

// Estimator returns the MTBFEstimator an observer at now holds: fed
// every interrupt of Interrupts(now) at or before now, and advanced to
// now. It is a pure function of (plan, now), whatever was asked before;
// the interrupts are counted by binary search, so a call costs only the
// draws it adds.
func (s *Schedule) Estimator(now float64) MTBFEstimator {
	s.extend(now)
	var e MTBFEstimator
	e.n = countAtOrBefore(s.explicit, now) + countAtOrBefore(s.draws, now)
	e.AdvanceTo(now)
	return e
}

// countAtOrBefore counts the elements of the ascending xs that are <= t.
func countAtOrBefore(xs []float64, t float64) int {
	return sort.Search(len(xs), func(i int) bool { return xs[i] > t })
}

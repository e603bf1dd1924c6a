package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Fault kinds accepted by Plan events.
const (
	// KindTargetOutage takes a storage target down for a window; writes
	// through it retry, back off, and fail over to a healthy target.
	KindTargetOutage = "target-outage"
	// KindNICDegrade multiplies a node's injection bandwidth by Factor
	// for a window.
	KindNICDegrade = "nic-degrade"
	// KindBBLoss fails a node's burst-buffer partition for a window:
	// buffered backlog replays through the backing tier and writes fall
	// back to GPFS speed.
	KindBBLoss = "bb-loss"
	// KindRankInterrupt kills a rank at Start, forcing a restart replay
	// from the last completed checkpoint (consumed by Analyze).
	KindRankInterrupt = "rank-interrupt"
)

// MitigationQuarantine labels writes (WriteRecord.Mitigated) and fault
// events whose retry storm a quarantine circuit breaker absorbed: the
// write failed over immediately instead of burning retries against a
// target the resilience engine already knows is out.
const MitigationQuarantine = "quarantine"

// Kinds returns the valid fault kinds, in documentation order.
func Kinds() []string {
	return []string{KindTargetOutage, KindNICDegrade, KindBBLoss, KindRankInterrupt}
}

// Default retry cost knobs (Plan zero values select these).
const (
	// DefaultRetryTimeout is the simulated seconds one failed write
	// attempt burns before the client gives up on it.
	DefaultRetryTimeout = 0.5
	// DefaultRetryBackoff is the base backoff between attempts; attempt
	// i waits i*DefaultRetryBackoff (linear backoff).
	DefaultRetryBackoff = 0.1
	// DefaultMaxRetries is the attempts burned before failing over.
	DefaultMaxRetries = 3
)

// Event schedules one fault against simulated time.
type Event struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Start is the simulated second the fault begins (>= 0).
	Start float64 `json:"start"`
	// End closes the fault window; 0 leaves it open-ended. Ignored by
	// rank-interrupt (an instant, not a window).
	End float64 `json:"end,omitempty"`
	// Target selects the storage target for target-outage; negative
	// matches every target.
	Target int `json:"target,omitempty"`
	// Node selects the compute node for nic-degrade and bb-loss;
	// negative matches every node (and is the only match under the
	// aggregate model, which carries no placement).
	Node int `json:"node,omitempty"`
	// Rank selects the interrupted rank for rank-interrupt.
	Rank int `json:"rank,omitempty"`
	// Factor is the nic-degrade bandwidth multiplier, in (0, 1].
	Factor float64 `json:"factor,omitempty"`
}

// Active reports whether the event's window covers simulated time t.
func (e Event) Active(t float64) bool {
	return t >= e.Start && (e.End <= 0 || t < e.End)
}

// active is the historical unexported spelling the injector hot path
// uses.
func (e Event) active(t float64) bool { return e.Active(t) }

// Plan is a deterministic fault schedule plus recovery-cost knobs. The
// zero value (and nil) is the fault-free plan. Plans round-trip through
// JSON on campaign.Case.Faults and the -faults CLI flags.
type Plan struct {
	// Events is the explicit fault schedule.
	Events []Event `json:"events,omitempty"`
	// MTBFSeconds > 0 additionally draws exponential rank interrupts
	// with this mean from Seed (Analyze consumes them).
	MTBFSeconds float64 `json:"mtbf_seconds,omitempty"`
	// Seed drives the MTBF draws; the same (plan, ledger) pair always
	// analyzes identically.
	Seed int64 `json:"seed,omitempty"`
	// RetryTimeout, RetryBackoff, MaxRetries price a target-outage
	// retry storm; zero values select the Default* constants.
	RetryTimeout float64 `json:"retry_timeout,omitempty"`
	RetryBackoff float64 `json:"retry_backoff,omitempty"`
	MaxRetries   int     `json:"max_retries,omitempty"`
}

// Zero reports whether the plan injects nothing: a nil or zero plan
// leaves the write path untouched.
func (p *Plan) Zero() bool {
	return p == nil || (len(p.Events) == 0 && p.MTBFSeconds <= 0)
}

func (p *Plan) retryTimeout() float64 {
	if p.RetryTimeout > 0 {
		return p.RetryTimeout
	}
	return DefaultRetryTimeout
}

func (p *Plan) retryBackoff() float64 {
	if p.RetryBackoff > 0 {
		return p.RetryBackoff
	}
	return DefaultRetryBackoff
}

func (p *Plan) maxRetries() int {
	if p.MaxRetries > 0 {
		return p.MaxRetries
	}
	return DefaultMaxRetries
}

// retrySeconds is the deterministic cost of one exhausted retry storm:
// each of the maxRetries attempts burns the timeout, with linear backoff
// between attempts.
func (p *Plan) retrySeconds() float64 {
	n := p.maxRetries()
	return float64(n)*p.retryTimeout() + p.retryBackoff()*float64(n*(n+1))/2
}

// Interrupts materializes the plan's rank-death schedule, sorted
// ascending: every explicit rank-interrupt event (unconditionally —
// Analyze has always counted scheduled deaths even past the run's
// makespan) plus, when horizon > 0, the MTBF-driven exponential draws
// from Seed up to horizon. The draws are prefix-stable: extending the
// horizon appends interrupts without perturbing earlier ones, which is
// what lets the online resilience engine and the post-hoc Analyze agree
// on the schedule they both saw.
func (p *Plan) Interrupts(horizon float64) []float64 {
	if p == nil {
		return nil
	}
	s := p.Schedule()
	s.extend(horizon)
	var interrupts []float64
	interrupts = append(interrupts, s.explicit...)
	interrupts = append(interrupts, s.draws...)
	sort.Float64s(interrupts)
	return interrupts
}

// Validate rejects malformed plans the way campaign.Case.Validate
// rejects malformed cases: unknown kinds, negative times, inverted
// windows, out-of-range factors, and negative retry knobs.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.MTBFSeconds < 0 {
		return fmt.Errorf("faults: negative mtbf_seconds %g", p.MTBFSeconds)
	}
	if p.RetryTimeout < 0 || p.RetryBackoff < 0 || p.MaxRetries < 0 {
		return fmt.Errorf("faults: negative retry knobs (timeout %g, backoff %g, max %d)",
			p.RetryTimeout, p.RetryBackoff, p.MaxRetries)
	}
	for i, e := range p.Events {
		if e.Start < 0 {
			return fmt.Errorf("faults: event %d (%s): negative start %g", i, e.Kind, e.Start)
		}
		if e.End > 0 && e.End <= e.Start {
			return fmt.Errorf("faults: event %d (%s): end %g <= start %g", i, e.Kind, e.End, e.Start)
		}
		switch e.Kind {
		case KindTargetOutage, KindBBLoss:
		case KindNICDegrade:
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("faults: event %d (%s): factor %g outside (0, 1]", i, e.Kind, e.Factor)
			}
		case KindRankInterrupt:
			if e.Rank < 0 {
				return fmt.Errorf("faults: event %d (%s): negative rank %d", i, e.Kind, e.Rank)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown fault kind %q (valid: %s)",
				i, e.Kind, strings.Join(Kinds(), ", "))
		}
	}
	return nil
}

// Parse decodes and validates a JSON plan. Unknown fields are rejected
// so typos ("targets" for "target") fail loudly instead of injecting
// nothing, and so is data after the plan, which would otherwise be
// dropped unread.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: malformed plan JSON: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("faults: malformed plan JSON: trailing data after the plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load resolves a -faults CLI argument: an inline JSON object (first
// non-space byte '{') or a path to a JSON file.
func Load(arg string) (*Plan, error) {
	s := strings.TrimSpace(arg)
	if s == "" {
		return nil, nil
	}
	if strings.HasPrefix(s, "{") {
		return Parse([]byte(s))
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("faults: reading plan %s: %w", arg, err)
	}
	return Parse(data)
}

// DefaultPlan is the demo schedule the fault sweeps inject when no plan
// is supplied: an early target outage, a degraded node, and one rank
// interrupt mid-run.
func DefaultPlan() *Plan {
	return &Plan{
		Events: []Event{
			{Kind: KindTargetOutage, Start: 0.1, End: 5, Target: 0},
			{Kind: KindNICDegrade, Start: 0, End: 10, Node: 0, Factor: 0.5},
			{Kind: KindRankInterrupt, Start: 2, Rank: 0},
		},
	}
}

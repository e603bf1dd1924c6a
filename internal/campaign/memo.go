package campaign

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amrproxyio/internal/iosim"
)

// The case executor (Design 10) is the one way a campaign case runs.
// Sweeps and the serve layer hit the same configurations over and over
// (the Hercule lesson — result reuse, not raw bandwidth, dominates at
// scale), so a caching Executor keys an LRU of completed CaseOutputs by
// canonical Fingerprint, with single-flight de-duplication so concurrent
// requests for the same configuration run one simulation and share the
// result; capacity 0 runs every case fresh. Each simulation streams into
// one iosim.CharacterizeFold (RetainAuto + an attached consumer drops
// the ledger burst by burst), so a cached entry holds per-step
// aggregates, not millions of records, and the fold itself goes only to
// RunAll's per-case hook.

// CaseOutput is one memoizable unit of work: the run result plus the
// streamed reductions every report path needs, keyed by fingerprint.
type CaseOutput struct {
	Result      Result                 `json:"result"`
	Bursts      []iosim.BurstStat      `json:"bursts"`
	Profile     iosim.Characterization `json:"profile"`
	Fingerprint string                 `json:"fingerprint"`
	// Cached marks an output served from the LRU (or joined onto
	// another caller's in-flight run) instead of a fresh simulation.
	Cached bool `json:"cached"`
}

// ExecStats is a point-in-time snapshot of the executor's counters.
type ExecStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Errors   uint64 `json:"errors"`
	InFlight int    `json:"in_flight"`
	Size     int    `json:"cache_size"`
	Cap      int    `json:"cache_cap"`
}

// HitRate is hits over lookups; 0 before the first lookup.
func (s ExecStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Reduction is a fresh simulation's finished per-run state: the
// characterization fold every report row reads (bursts, profile, and
// the placement, storage, aggregation, topology and recovery rows), and
// the fault-event stream the recovery models replay. RunAll hands it to
// the WithOutputs hook and drops it; it is never part of a CaseOutput or
// the cache.
type Reduction struct {
	Fold   *iosim.CharacterizeFold
	Faults []iosim.FaultEvent
}

// memoEntry is one LRU slot.
type memoEntry struct {
	fp  string
	out CaseOutput
}

// flight is one in-progress computation other callers can join.
type flight struct {
	done chan struct{}
	out  CaseOutput
	err  error
}

// Executor runs cases through the memoization layer. The zero value is
// not usable; construct with NewExecutor.
type Executor struct {
	topo bool
	cap  int

	mu      sync.Mutex
	lru     *list.List // front = most recent; values are *memoEntry
	byFP    map[string]*list.Element
	flights map[string]*flight

	hits     atomic.Uint64
	misses   atomic.Uint64
	errs     atomic.Uint64
	inFlight atomic.Int64

	// run is the package-level run unless a test injects a panicking or
	// stalling stand-in.
	run func(context.Context, Case, *iosim.FileSystem) (Result, error)
}

// NewExecutor returns an executor caching up to capacity outputs;
// capacity < 1 caches nothing, so every case simulates and every caller
// gets its own Reduction. withTopology selects the FSConfig every case
// runs against (and salts the keys).
func NewExecutor(capacity int, withTopology bool) *Executor {
	return &Executor{
		topo:    withTopology,
		cap:     max(capacity, 0),
		lru:     list.New(),
		byFP:    map[string]*list.Element{},
		flights: map[string]*flight{},
		run:     run,
	}
}

// Stats snapshots the counters.
func (e *Executor) Stats() ExecStats {
	e.mu.Lock()
	size := e.lru.Len()
	e.mu.Unlock()
	return ExecStats{
		Hits:     e.hits.Load(),
		Misses:   e.misses.Load(),
		Errors:   e.errs.Load(),
		InFlight: int(e.inFlight.Load()),
		Size:     size,
		Cap:      e.cap,
	}
}

// RunCase executes one case through the cache: a hit returns the stored
// output with Cached set; a miss simulates under the defensive envelope
// (Validate, panic recovery, optional timeout) and stores the output on
// success. Concurrent misses on the same fingerprint share a single
// simulation. timeout <= 0 disables the per-case bound.
func (e *Executor) RunCase(c Case, timeout time.Duration) (CaseOutput, error) {
	out, _, err := e.execute(c, timeout)
	return out, err
}

// execute is RunCase that also returns a fresh simulation's Reduction
// (nil on a hit, a join, or an error).
func (e *Executor) execute(c Case, timeout time.Duration) (CaseOutput, *Reduction, error) {
	if err := c.Validate(); err != nil {
		return CaseOutput{Result: Result{Case: c, Engine: c.engineFor()}}, nil, err
	}
	fp, err := Fingerprint(c, e.topo)
	if err != nil {
		return CaseOutput{Result: Result{Case: c, Engine: c.engineFor()}}, nil, err
	}

	e.mu.Lock()
	if el, ok := e.byFP[fp]; ok {
		e.lru.MoveToFront(el)
		out := el.Value.(*memoEntry).out
		e.mu.Unlock()
		e.hits.Add(1)
		out.Cached = true
		out.Result.Case.Name = c.Name // keep the caller's row label
		return out, nil, nil
	}
	if f, ok := e.flights[fp]; ok {
		e.mu.Unlock()
		<-f.done
		out := f.out
		out.Result.Case.Name = c.Name
		if f.err != nil {
			// The computing caller reported the failure; joiners surface
			// it too but don't double-count it in the error stats.
			return out, nil, f.err
		}
		e.hits.Add(1)
		out.Cached = true
		return out, nil, nil
	}
	f := &flight{done: make(chan struct{})}
	if e.cap > 0 {
		e.flights[fp] = f // an uncached executor never shares a run
	}
	e.mu.Unlock()

	e.misses.Add(1)
	e.inFlight.Add(1)
	out, red, err := e.simulate(c, fp, timeout)
	e.inFlight.Add(-1)

	f.out, f.err = out, err
	if e.cap > 0 {
		e.mu.Lock()
		delete(e.flights, fp)
		if err == nil {
			e.insert(fp, out)
		}
		e.mu.Unlock()
	}
	close(f.done)

	if err != nil {
		e.errs.Add(1)
	}
	return out, red, err
}

// simulate is the uncached path: one fresh filesystem with the
// characterization fold attached, run inside the defensive envelope. A
// panic is recovered into an error output; with timeout > 0 a case still
// running at the deadline stops at its next step and returns a timeout
// error output, so the case's work ends with the call.
func (e *Executor) simulate(c Case, fp string, timeout time.Duration) (out CaseOutput, red *Reduction, err error) {
	failed := CaseOutput{Result: Result{Case: c, Engine: c.engineFor()}, Fingerprint: fp}
	defer func() {
		if r := recover(); r != nil {
			out, red, err = failed, nil, fmt.Errorf("campaign %s: panic: %v", c.Name, r)
		}
	}()
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	fold := iosim.NewCharacterizeFold()
	fs := iosim.New(c.FSConfig(e.topo), "")
	fs.Attach(fold) // RetainAuto + consumer: records drop burst by burst
	res, err := e.run(ctx, c, fs)
	if errors.Is(err, context.DeadlineExceeded) {
		return failed, nil, fmt.Errorf("campaign %s: case timed out after %s", c.Name, timeout)
	}
	if err != nil {
		return CaseOutput{Result: res, Fingerprint: fp}, nil, err
	}
	fs.FlushConsumers()
	out = CaseOutput{Result: res, Bursts: fold.Bursts(), Profile: fold.Profile(), Fingerprint: fp}
	return out, &Reduction{Fold: fold, Faults: fs.FaultEvents()}, nil
}

// insert stores an output, evicting from the LRU tail. Caller holds mu.
func (e *Executor) insert(fp string, out CaseOutput) {
	out.Cached = false
	e.byFP[fp] = e.lru.PushFront(&memoEntry{fp: fp, out: out})
	for e.lru.Len() > e.cap {
		el := e.lru.Back()
		e.lru.Remove(el)
		delete(e.byFP, el.Value.(*memoEntry).fp)
	}
}

// CheckBatch validates a batch for the memoized pool: every case must
// Validate, and two cases sharing a Name must also share a fingerprint.
// Exact duplicates are fine — de-duplicating them is the cache's job —
// but one label mapping to two distinct configurations means the
// submitter holds two different expectations for the same output row,
// and serving either would silently betray one of them. withTopology
// must match the executor the batch will run on.
func CheckBatch(cases []Case, withTopology bool) error {
	byName := map[string]string{}
	for i, c := range cases {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("case %d: %w", i, err)
		}
		fp, err := Fingerprint(c, withTopology)
		if err != nil {
			return fmt.Errorf("case %d: %w", i, err)
		}
		if prev, ok := byName[c.Name]; ok && prev != fp {
			return fmt.Errorf("case %d: duplicate name %q with a different configuration (fingerprints %s vs %s)",
				i, c.Name, prev[:12], fp[:12])
		}
		byName[c.Name] = fp
	}
	return nil
}

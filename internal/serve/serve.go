package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"amrproxyio/internal/campaign"
)

// Options tunes the service. The zero value serves with sweep-sized
// defaults: all-cores workers per batch, a DefaultCacheSize-entry cache,
// batches up to DefaultMaxCases cases, DefaultMaxBatches concurrent
// batches, no per-case timeout, aggregate (topology-free) filesystems.
type Options struct {
	// Parallel is the per-batch worker-pool size (campaign.RunAll
	// semantics: <1 selects all cores).
	Parallel int
	// CaseTimeout bounds each case's wall clock (campaign.WithCaseTimeout
	// semantics): a case past it stops at its next step and streams a
	// timeout error line. <=0 disables the bound.
	CaseTimeout time.Duration
	// MaxCases rejects larger batches with 400; <1 selects DefaultMaxCases.
	MaxCases int
	// MaxBatches caps concurrently running batches; excess requests wait
	// for a slot (honoring cancellation). <1 selects DefaultMaxBatches.
	MaxBatches int
	// CacheSize caps the executor's LRU; <1 selects DefaultCacheSize. (A
	// service always caches: campaign.NewExecutor's capacity 0, which
	// runs every case fresh, is for one-shot sweeps.)
	CacheSize int
	// Topology runs every case against its per-link topology model
	// instead of the aggregate pool (and salts the cache keys).
	Topology bool
}

// Defaults for the zero Options.
const (
	DefaultMaxCases   = 256
	DefaultMaxBatches = 4
	DefaultCacheSize  = 1024
)

// perCaseBytes is one case's share of the /run body limit, which is
// MaxCases × perCaseBytes (1 MiB at the default). A case with every
// field set, the largest example fault plan (examples/faultplans, 231 B),
// a full mitigation policy, an aggregation spec and a 13-digit
// bb_capacity encodes to 804 B, or 1487 B indented four spaces, so no
// legal batch of at most MaxCases such cases reaches the limit, while a
// hostile body stops at it.
const perCaseBytes = 4 << 10

// Server owns the memoizing executor and the service counters. Create
// with New; serve its Handler.
type Server struct {
	opts Options
	exec *campaign.Executor
	sem  chan struct{} // batch slots

	start     time.Time
	completed atomic.Uint64 // cases finished (hit, miss, or error)
	cases     atomic.Int64  // cases currently in some running batch
	batches   atomic.Int64  // batches currently running
}

// New builds a server from opts (zero value: see Options).
func New(opts Options) *Server {
	if opts.MaxCases < 1 {
		opts.MaxCases = DefaultMaxCases
	}
	if opts.MaxBatches < 1 {
		opts.MaxBatches = DefaultMaxBatches
	}
	if opts.CacheSize < 1 {
		opts.CacheSize = DefaultCacheSize
	}
	return &Server{
		opts:  opts,
		exec:  campaign.NewExecutor(opts.CacheSize, opts.Topology),
		sem:   make(chan struct{}, opts.MaxBatches),
		start: time.Now(),
	}
}

// Handler returns the service mux: POST /run, GET /healthz, GET /statz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	return mux
}

// CaseLine is one NDJSON response line: the per-case report JSON,
// written as the case completes. Lines arrive in completion order;
// Index ties each back to its position in the submitted batch.
type CaseLine struct {
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// Output carries the result and the streamed reductions (burst
	// stats, characterization profile, fingerprint); omitted on error.
	Output *campaign.CaseOutput `json:"output,omitempty"`
}

// decodeBatch reads a strict JSON case batch. DisallowUnknownFields is
// the service's input contract (and the jsonstrict vet gate's): a typo
// in a case field must 400, not silently run a default. So must data
// after the batch: a second batch would otherwise be dropped unrun.
func decodeBatch(body io.Reader) ([]campaign.Case, error) {
	var cases []campaign.Case
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cases); err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("decode batch: trailing data after the batch")
	}
	return cases, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	cases, err := decodeBatch(http.MaxBytesReader(w, r.Body, int64(s.opts.MaxCases)*perCaseBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	if len(cases) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	if len(cases) > s.opts.MaxCases {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(cases), s.opts.MaxCases),
			http.StatusBadRequest)
		return
	}
	if err := campaign.CheckBatch(cases, s.opts.Topology); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Batch slot: the concurrency limit. Waiting requests drop out when
	// the client goes away.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		http.Error(w, "canceled while waiting for a batch slot", http.StatusServiceUnavailable)
		return
	}

	s.batches.Add(1)
	s.cases.Add(int64(len(cases)))
	defer func() {
		s.cases.Add(-int64(len(cases)))
		s.batches.Add(-1)
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// The outputs hook runs on RunAll's worker goroutines: one writer
	// lock orders the lines and keeps the flushes whole.
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	_, err = campaign.RunAll(cases, s.opts.Parallel, s.exec,
		campaign.WithCaseTimeout(s.opts.CaseTimeout),
		campaign.WithOutputs(func(i int, out campaign.CaseOutput, _ *campaign.Reduction, err error) {
			line := CaseLine{Index: i, Name: cases[i].Name, Cached: out.Cached}
			if err != nil {
				line.Error = err.Error()
			} else {
				line.Output = &out
			}
			mu.Lock()
			defer mu.Unlock()
			if encErr := enc.Encode(line); encErr != nil {
				return // client gone; RunAll still drains the batch
			}
			if flusher != nil {
				flusher.Flush()
			}
			s.completed.Add(1)
		}))
	_ = err // per-case errors already went out on their own lines
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Statz is the /statz JSON document.
type Statz struct {
	campaign.ExecStats
	HitRate         float64 `json:"hit_rate"`
	CasesCompleted  uint64  `json:"cases_completed"`
	CasesPerSec     float64 `json:"cases_per_sec"`
	InFlightCases   int64   `json:"in_flight_cases"`
	InFlightBatches int64   `json:"in_flight_batches"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
}

// Stats snapshots the service counters (the /statz payload).
func (s *Server) Stats() Statz {
	es := s.exec.Stats()
	up := time.Since(s.start).Seconds()
	completed := s.completed.Load()
	var rate float64
	if up > 0 {
		rate = float64(completed) / up
	}
	return Statz{
		ExecStats:       es,
		HitRate:         es.HitRate(),
		CasesCompleted:  completed,
		CasesPerSec:     rate,
		InFlightCases:   s.cases.Load(),
		InFlightBatches: s.batches.Load(),
		UptimeSeconds:   up,
	}
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(s.Stats()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// runRecord is the result JSON (-out): where and how the numbers were
// taken, then every workload's metrics. bench/baseline/BENCH_<pr>.json
// is one of these.
type runRecord struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	Commit     string           `json:"commit"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"timed_seconds_per_workload"`
	Smoke      bool             `json:"smoke,omitempty"`
	Workloads  []workloadRecord `json:"workloads"`
}

// workloadRecord is one workload's outcome.
type workloadRecord struct {
	Name         string `json:"name"`
	Why          string `json:"why"`
	Loop         string `json:"load"`
	InputsSHA256 string `json:"inputs_sha256"`
	// Golden says how outputs were verified: "matched" against
	// bench/golden (same generated inputs), or "cross-checked" when
	// the seed has no golden and copies of the same case were only
	// compared with each other.
	Golden string `json:"golden"`
	// Pass counts and sizes.
	SetupReps   int `json:"setup_reps"`
	TimedPasses int `json:"timed_passes"`
	OpsPerPass  int `json:"ops_per_pass"`
	TracedOps   int `json:"traced_ops"`
	MemoryOps   int `json:"memory_ops"`
	// Attempted counts ops across all passes; Failed counts errors,
	// non-200 responses, NDJSON error lines and digest mismatches.
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	EndToEnd  []metricRecord `json:"end_to_end"`
	PerLayer  []metricRecord `json:"per_layer"`
	Trace     string         `json:"trace_file,omitempty"`
}

// metricRecord is one reported number.
type metricRecord struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	// Pass names the pass that produced the value.
	Pass string `json:"pass"`
	// Samples is how many measurements the value summarizes;
	// Percentile is set on percentiles (lat_p99_ms carries a lower one
	// where there are too few samples for p99).
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
	// Q1 and Q3 are the quartiles of the per-pass (end-to-end) or
	// per-op (per-layer) estimates behind a timing, when there are at
	// least two.
	Q1 *float64 `json:"q1,omitempty"`
	Q3 *float64 `json:"q3,omitempty"`
	// Exact marks counts and simulated values that must repeat exactly.
	Exact bool `json:"exact,omitempty"`
	// Bound (relative) or AbsBound is the regression tolerance of an
	// end-to-end metric.
	Bound    float64 `json:"bound,omitempty"`
	AbsBound float64 `json:"abs_bound,omitempty"`
}

func (w *workloadRecord) metric(name string) *metricRecord {
	for _, list := range [][]metricRecord{w.EndToEnd, w.PerLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// newRunRecord fills in the environment half of the record.
func newRunRecord(seed int64, seconds float64, smoke bool, commit string) runRecord {
	if commit == "" {
		commit = "unknown"
		if info, ok := debug.ReadBuildInfo(); ok {
			for _, s := range info.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	return runRecord{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     commit,
		Seed:       seed,
		Seconds:    seconds,
		Smoke:      smoke,
	}
}

func (r runRecord) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("result dir: %w", err)
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadRunRecord(path string) (runRecord, error) {
	var r runRecord
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("decode %s: %w", path, err)
	}
	return r, nil
}

// print writes every metric of a workload by name with its unit.
func (w workloadRecord) print(out io.Writer) {
	fmt.Fprintf(out, "== %s\n   load: %s\n   inputs %s, outputs %s; %d timed passes x %d ops, %d traced ops, %d memory ops\n",
		w.Name, w.Loop, w.InputsSHA256[:12], w.Golden, w.TimedPasses, w.OpsPerPass, w.TracedOps, w.MemoryOps)
	printMetrics := func(title string, list []metricRecord) {
		if len(list) == 0 {
			return
		}
		fmt.Fprintf(out, "   %s\n", title)
		for _, m := range list {
			fmt.Fprintf(out, "     %-30s %14.6g %-8s [%s", m.Name, m.Value, m.Unit, m.Pass)
			if m.Samples > 0 {
				fmt.Fprintf(out, ", n=%d", m.Samples)
			}
			if m.Percentile > 0 {
				fmt.Fprintf(out, ", p%g", m.Percentile)
			}
			if m.Q1 != nil && m.Q3 != nil {
				fmt.Fprintf(out, ", q1 %.6g q3 %.6g", *m.Q1, *m.Q3)
			}
			if m.Exact {
				fmt.Fprint(out, ", exact")
			}
			fmt.Fprintln(out, "]")
		}
	}
	printMetrics("end-to-end", w.EndToEnd)
	printMetrics("per-layer", w.PerLayer)
}

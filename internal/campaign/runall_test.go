package campaign

// Tests for the concurrent campaign worker pool: results (including the
// full plot ledgers) must be identical to the serial loop at any
// parallelism, and per-case failures must not abort sibling cases.

import (
	"errors"
	"strings"
	"testing"
)

// runAllCases is a small but heterogeneous slice of the sweep: hydro and
// surrogate engines, multiple rank counts and level counts.
func runAllCases() []Case {
	return []Case{
		{Name: "ra_hydro_1", NCell: 32, MaxLevel: 2, MaxStep: 40, PlotInt: 10, CFL: 0.5, NProcs: 2, Engine: EngineHydro},
		{Name: "ra_hydro_2", NCell: 32, MaxLevel: 3, MaxStep: 40, PlotInt: 20, CFL: 0.4, NProcs: 4, Engine: EngineHydro},
		{Name: "ra_surr_1", NCell: 1024, MaxLevel: 2, MaxStep: 20, PlotInt: 5, CFL: 0.5, NProcs: 16, Engine: EngineSurrogate},
		{Name: "ra_surr_2", NCell: 2048, MaxLevel: 3, MaxStep: 20, PlotInt: 10, CFL: 0.3, NProcs: 32, Engine: EngineSurrogate},
		{Name: "ra_hydro_3", NCell: 64, MaxLevel: 2, MaxStep: 40, PlotInt: 20, CFL: 0.6, NProcs: 2, Engine: EngineHydro},
		{Name: "ra_surr_3", NCell: 1024, MaxLevel: 4, MaxStep: 20, PlotInt: 5, CFL: 0.6, NProcs: 8, Engine: EngineSurrogate},
	}
}

func TestRunAllMatchesSerial(t *testing.T) {
	cases := runAllCases()
	serial, err := RunAll(cases, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAll(cases, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(cases) || len(parallel) != len(cases) {
		t.Fatalf("result counts: serial %d, parallel %d, want %d", len(serial), len(parallel), len(cases))
	}
	for i := range cases {
		s, p := serial[i], parallel[i]
		if s.Case.Name != cases[i].Name || p.Case.Name != cases[i].Name {
			t.Fatalf("case %d out of order: serial %q parallel %q want %q", i, s.Case.Name, p.Case.Name, cases[i].Name)
		}
		if s.Engine != p.Engine || s.NPlots != p.NPlots || s.SimTime != p.SimTime {
			t.Errorf("%s: engine/plots/time differ: %+v vs %+v", s.Case.Name, s, p)
		}
		if len(s.Records) != len(p.Records) {
			t.Fatalf("%s: record counts differ: %d vs %d", s.Case.Name, len(s.Records), len(p.Records))
		}
		for j := range s.Records {
			if s.Records[j] != p.Records[j] {
				t.Fatalf("%s: record %d differs: %+v vs %+v", s.Case.Name, j, s.Records[j], p.Records[j])
			}
		}
	}
}

func TestRunAllDefaults(t *testing.T) {
	cases := runAllCases()[:2]
	// parallelism <= 0 (GOMAXPROCS) and a nil executor both take defaults.
	results, err := RunAll(cases, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.TotalBytes() == 0 || r.NPlots == 0 {
			t.Errorf("case %d produced no output: %+v", i, r)
		}
	}
	if got, err := RunAll(nil, 4, nil); err != nil || got != nil {
		t.Errorf("empty case list: results %v err %v", got, err)
	}
}

func TestRunAllCollectsErrors(t *testing.T) {
	cases := []Case{
		runAllCases()[0],
		{Name: "ra_bad", NCell: 32, MaxLevel: 2, MaxStep: 40, PlotInt: 10, CFL: 0.5, NProcs: 2, Engine: Engine("nonsense")},
		runAllCases()[4],
	}
	results, err := RunAll(cases, 2, nil)
	if err == nil {
		t.Fatal("bad engine did not error")
	}
	if !strings.Contains(err.Error(), "ra_bad") {
		t.Errorf("error does not name the failed case: %v", err)
	}
	var joined interface{ Unwrap() []error }
	if errors.As(err, &joined) && len(joined.Unwrap()) != 1 {
		t.Errorf("joined %d errors, want 1", len(joined.Unwrap()))
	}
	// Healthy siblings still completed.
	if results[0].TotalBytes() == 0 || results[2].TotalBytes() == 0 {
		t.Error("sibling cases did not run to completion")
	}
}

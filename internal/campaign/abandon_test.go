package campaign

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"amrproxyio/internal/iosim"
	"amrproxyio/internal/sim"
)

// streamSlowCase is the CI serve-smoke slow case: a hydro run of about
// 3 s uncapped, long enough that a sub-second timeout always cuts it
// off part-way through its steps.
func streamSlowCase() Case {
	return Case{
		Name: "stream-slow", NCell: 64, MaxLevel: 2, MaxStep: 600, PlotInt: 100,
		CFL: 0.5, NProcs: 4, Nodes: 1, Engine: EngineHydro,
	}
}

// settledGoroutines waits briefly for goroutines that are already on
// their way out (a pool worker past wg.Done, a fired timer's callback)
// and returns the count once it reaches want, or the last count read.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestCaseTimeoutAbandonmentCounted: WithCaseTimeout stops a slow case
// instead of abandoning it. Once RunAll returns the timeout error, no
// goroutine of the case is left running — the process is back to the
// goroutines it had before the call.
func TestCaseTimeoutAbandonmentCounted(t *testing.T) {
	before := runtime.NumGoroutine()
	results, err := RunAll([]Case{streamSlowCase()}, 1, nil, WithCaseTimeout(100*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a case timeout", err)
	}
	if len(results) != 1 || results[0].NPlots != 0 {
		t.Fatalf("timed-out case reported work: %+v", results)
	}
	if got := settledGoroutines(before); got != before {
		t.Errorf("%d goroutines after the timed-out call, %d before: the case outlived its deadline", got, before)
	}
}

// TestTimedOutCaseLeavesNoTrace: the deadline decides only complete or
// error. A timed-out case leaves nothing in the cache, and the untimed
// rerun that follows is a fresh simulation equal to one on a new
// executor.
func TestTimedOutCaseLeavesNoTrace(t *testing.T) {
	c := Case{
		Name: "trace", NCell: 64, MaxLevel: 2, MaxStep: 40, PlotInt: 10,
		CFL: 0.5, NProcs: 4, Nodes: 1, Engine: EngineHydro,
	}
	e := NewExecutor(4, false)
	if _, err := e.RunCase(c, time.Millisecond); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a case timeout", err)
	}
	got, err := e.RunCase(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Error("rerun after a timeout was served from the cache")
	}
	want, err := NewExecutor(0, false).RunCase(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Bursts, want.Bursts) {
		t.Error("rerun bursts differ from a fresh executor's")
	}
	if !reflect.DeepEqual(got.Profile, want.Profile) {
		t.Error("rerun profile differs from a fresh executor's")
	}

	// A run whose context is already cancelled stops before its first step.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := sim.New(c.Inputs(), sim.DefaultOptions(), iosim.New(iosim.DefaultConfig(), ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on a cancelled context = %v, want context.Canceled", err)
	}
	if s.Step != 0 {
		t.Errorf("cancelled run took %d steps, want 0", s.Step)
	}
}

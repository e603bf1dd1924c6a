package campaign

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"amrproxyio/internal/iosim"
)

func memoCase(name string, plotInt int) Case {
	return Case{
		Name: name, NCell: 32, MaxLevel: 0, MaxStep: 2, PlotInt: plotInt,
		CFL: 0.5, NProcs: 2,
	}
}

func TestExecutorHitMissAndEquivalence(t *testing.T) {
	e := NewExecutor(8, false)
	c := memoCase("m1", 1)

	cold, err := e.RunCase(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Error("first run must be a miss")
	}
	if cold.Fingerprint == "" || len(cold.Bursts) == 0 || cold.Profile.TotalWrites == 0 {
		t.Fatalf("miss output missing streamed folds: %+v", cold)
	}

	// Same config under a different row label: hit, same physics, the
	// caller's name on the row.
	c2 := c
	c2.Name = "m1-renamed"
	warm, err := e.RunCase(c2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("identical configuration must hit the cache")
	}
	if warm.Result.Case.Name != "m1-renamed" {
		t.Errorf("hit kept the stored row label %q", warm.Result.Case.Name)
	}
	if !reflect.DeepEqual(warm.Bursts, cold.Bursts) || !reflect.DeepEqual(warm.Profile, cold.Profile) {
		t.Error("cached output physics diverged from the computed output")
	}

	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", st.HitRate())
	}
}

func TestExecutorMemoizedMatchesUncached(t *testing.T) {
	// The memoized path (streaming folds, dropped ledger) must produce
	// the same Result physics as the plain uncached Run.
	c := memoCase("m-eq", 1)
	e := NewExecutor(4, false)
	out, err := e.RunCase(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(c, iosim.New(c.FSConfig(false), ""))
	if err != nil {
		t.Fatal(err)
	}
	if plain.NPlots == 0 {
		t.Fatal("plain run produced no plots")
	}
	if out.Result.NPlots != plain.NPlots || out.Result.SimTime != plain.SimTime ||
		out.Result.TotalBytes() != plain.TotalBytes() {
		t.Errorf("memoized physics diverged: %+v vs %+v", out.Result, plain)
	}
}

func TestExecutorSingleFlight(t *testing.T) {
	// N concurrent identical requests: one simulation, N-1 joiners.
	e := NewExecutor(4, false)
	c := memoCase("sf", 1)
	const n = 8
	outs := make([]CaseOutput, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := e.RunCase(c, 0)
			if err != nil {
				t.Error(err)
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	st := e.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 simulation for %d concurrent requests", st.Misses, n)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d", st.Hits, n-1)
	}
	cached := 0
	for _, o := range outs {
		if o.Cached {
			cached++
		}
	}
	if cached != n-1 {
		t.Errorf("%d outputs marked Cached, want %d", cached, n-1)
	}
}

func TestExecutorLRUEviction(t *testing.T) {
	e := NewExecutor(2, false)
	a := memoCase("a", 1)
	b := memoCase("b", 2)
	c := memoCase("c", 1)
	c.MaxStep = 4 // distinct from a
	for _, cs := range []Case{a, b} {
		if _, err := e.RunCase(cs, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b is the LRU victim when c arrives.
	if _, err := e.RunCase(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunCase(c, 0); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Size != 2 {
		t.Fatalf("cache size = %d, want cap 2", st.Size)
	}
	// a still cached, b evicted.
	if out, _ := e.RunCase(a, 0); !out.Cached {
		t.Error("recently-used entry was evicted")
	}
	if out, _ := e.RunCase(b, 0); out.Cached {
		t.Error("LRU victim was still cached")
	}
}

func TestExecutorErrorsNotCached(t *testing.T) {
	e := NewExecutor(4, false)
	bad := memoCase("bad", 1)
	bad.Engine = "bogus"
	if _, err := e.RunCase(bad, 0); err == nil {
		t.Fatal("invalid case accepted")
	}
	st := e.Stats()
	if st.Size != 0 {
		t.Errorf("error result was cached: size = %d", st.Size)
	}
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("validation failure counted as a lookup: %+v", st)
	}
}

func TestExecutorTimeoutAbandonAccounting(t *testing.T) {
	e := NewExecutor(4, false)
	// Same shape as the abandon_test case: outlives a 1 ms timeout by
	// orders of magnitude, finishes (and drains) within the test.
	slow := Case{
		Name: "slow", NCell: 4096, MaxLevel: 2, MaxStep: 40, PlotInt: 2,
		CFL: 0.5, NProcs: 256, Nodes: 64, Engine: EngineSurrogate,
		ComputeSeconds: 0.1,
	}
	out, err := e.RunCase(slow, time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
	if !out.Result.Abandoned {
		t.Error("timeout output not marked Abandoned")
	}
	st := e.Stats()
	if st.Abandoned != 1 || st.Errors != 1 {
		t.Errorf("stats = %+v, want 1 abandoned / 1 error", st)
	}
	if st.Size != 0 {
		t.Error("abandoned result was cached")
	}
	// The abandoned goroutine drains and the global gauge returns to 0.
	deadline := time.Now().Add(30 * time.Second)
	for AbandonedInFlight() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := AbandonedInFlight(); got != 0 {
		t.Errorf("AbandonedInFlight = %d after drain, want 0", got)
	}
}

func TestCheckBatch(t *testing.T) {
	a := memoCase("a", 1)
	dupExact := a // same name, same config: allowed (cache demo case)
	conflict := a
	conflict.MaxStep = 6 // same name, different config: rejected
	renamed := conflict
	renamed.Name = "a-prime" // different name: allowed

	if err := CheckBatch([]Case{a, dupExact, renamed}, false); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
	err := CheckBatch([]Case{a, conflict}, false)
	if err == nil || !strings.Contains(err.Error(), `duplicate name "a"`) {
		t.Errorf("conflicting batch err = %v", err)
	}
	bad := a
	bad.Engine = "bogus"
	if err := CheckBatch([]Case{bad}, false); err == nil {
		t.Error("invalid case passed CheckBatch")
	}
}

func TestRunAllWithExecutorAndOutputs(t *testing.T) {
	e := NewExecutor(8, false)
	a := memoCase("a", 1)
	dup := a
	dup.Name = "a-dup"
	b := memoCase("b", 2)
	cases := []Case{a, dup, b}

	var mu sync.Mutex
	seen := map[int]CaseOutput{}
	reduced := 0
	results, err := RunAll(cases, 2, e,
		WithOutputs(func(i int, out CaseOutput, red *Reduction, err error) {
			if err != nil {
				t.Error(err)
			}
			if (red != nil) == out.Cached {
				t.Errorf("case %d: Cached=%v but Reduction=%v; only fresh simulations carry one", i, out.Cached, red)
			}
			mu.Lock()
			seen[i] = out
			if red != nil {
				reduced++
			}
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || len(seen) != 3 {
		t.Fatalf("results = %d, hook calls = %d, want 3 each", len(results), len(seen))
	}
	for i, r := range results {
		if r.NPlots == 0 {
			t.Errorf("case %d produced no plots: %+v", i, r)
		}
		if r.Case.Name != cases[i].Name {
			t.Errorf("case %d result labeled %q", i, r.Case.Name)
		}
		if !reflect.DeepEqual(seen[i].Result, r) {
			t.Errorf("hook output %d diverged from returned result", i)
		}
	}
	st := e.Stats()
	// a and a-dup share a fingerprint: 2 simulations total (a/a-dup
	// de-duplicated via cache or single-flight), 1 hit.
	if st.Misses != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses / 1 hit", st)
	}
	if reduced != 2 {
		t.Errorf("%d hook calls carried a Reduction, want one per simulation (2)", reduced)
	}
}

// TestExecutorUncached: capacity 0 caches nothing and shares nothing, so
// every case — duplicates included — simulates and hands the hook its
// own finished fold, whose bursts and profile are the output's.
func TestExecutorUncached(t *testing.T) {
	e := NewExecutor(0, false)
	a := memoCase("a", 1)
	dup := a
	dup.Name = "a-dup"
	cases := []Case{a, dup, a}
	var mu sync.Mutex
	reds := map[int]*Reduction{}
	_, err := RunAll(cases, 3, e, WithOutputs(func(i int, out CaseOutput, red *Reduction, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		if out.Cached || red == nil {
			t.Errorf("case %d: Cached=%v Reduction=%v, want a fresh simulation", i, out.Cached, red)
			return
		}
		if !reflect.DeepEqual(red.Fold.Bursts(), out.Bursts) || !reflect.DeepEqual(red.Fold.Profile(), out.Profile) {
			t.Errorf("case %d: the output's reductions are not its fold's", i)
		}
		mu.Lock()
		reds[i] = red
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(reds) != 3 || reds[0] == reds[1] || reds[0] == reds[2] {
		t.Errorf("got %d distinct reductions, want 3", len(reds))
	}
	if st := e.Stats(); st.Misses != 3 || st.Hits != 0 || st.Size != 0 || st.Cap != 0 {
		t.Errorf("stats = %+v, want 3 misses, no hits, nothing cached", st)
	}
}

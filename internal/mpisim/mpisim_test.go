package mpisim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestBarrier(t *testing.T) {
	const ranks, rounds = 8, 3
	var phase atomic.Int64
	w := NewWorld(ranks)
	err := w.Run(func(c *Comm) error {
		for i := 1; i <= rounds; i++ {
			phase.Add(1)
			c.Barrier()
			// After barrier i every rank must observe all 8 arrivals at it.
			if got := phase.Load(); got != int64(i*ranks) {
				t.Errorf("rank %d saw phase %d after barrier %d", c.rank, got, i)
			}
			c.Barrier() // nobody starts round i+1 before all have checked
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 barriers a round, each 2(P-1) messages.
	if got, want := w.Stats().Messages, int64(rounds*2*2*(ranks-1)); got != want {
		t.Errorf("messages = %d, want %d", got, want)
	}
}

// TestSingleRankCollectives: a one-rank world passes its barriers without
// sending anything.
func TestSingleRankCollectives(t *testing.T) {
	one := NewWorld(1)
	if err := one.Run(func(c *Comm) error { c.Barrier(); c.Barrier(); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := one.Stats().Messages; got != 0 {
		t.Errorf("single-rank barrier sent %d messages, want 0", got)
	}
}

// TestTrafficStats: each barrier adds 2(P-1) messages, and the count
// accumulates across runs on the same world.
func TestTrafficStats(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("P=%d", ranks), func(t *testing.T) {
			w := NewWorld(ranks)
			per := int64(2 * (ranks - 1))
			for run, barriers := range []int{1, 4} {
				err := w.Run(func(c *Comm) error {
					for i := 0; i < barriers; i++ {
						c.Barrier()
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				want := per * int64(1+4*run)
				if got := w.Stats().Messages; got != want {
					t.Errorf("after run %d: messages = %d, want %d", run, got, want)
				}
			}
		})
	}
}

// TestManyRanksStress: 512 ranks, the widest MACSio burst the benchmark
// drives, meet at many barriers in a row without losing a rank.
func TestManyRanksStress(t *testing.T) {
	const ranks, rounds = 512, 20
	var phase atomic.Int64
	w := NewWorld(ranks)
	err := w.Run(func(c *Comm) error {
		for i := 1; i <= rounds; i++ {
			phase.Add(1)
			c.Barrier()
			if got := phase.Load(); got != int64(i*ranks) {
				return fmt.Errorf("rank %d saw phase %d after barrier %d", c.rank, got, i)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.Stats().Messages, int64(rounds*2*2*(ranks-1)); got != want {
		t.Errorf("messages = %d, want %d", got, want)
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := NewWorld(3).Run(func(c *Comm) error {
		if c.rank == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated: %v", err)
	}
}

// TestRunFirstErrorInRankOrder: when several ranks fail, Run reports the
// lowest-numbered one, whatever order they finished in.
func TestRunFirstErrorInRankOrder(t *testing.T) {
	errs := []error{nil, errors.New("rank 1 failed"), nil, errors.New("rank 3 failed")}
	rank3Done := make(chan struct{})
	err := NewWorld(len(errs)).Run(func(c *Comm) error {
		switch c.rank {
		case 1:
			<-rank3Done // fail after rank 3 has
		case 3:
			defer close(rank3Done)
		}
		return errs[c.rank]
	})
	if !errors.Is(err, errs[1]) || errors.Is(err, errs[3]) {
		t.Fatalf("err = %v, want rank 1's error", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := NewWorld(2).Run(func(c *Comm) error {
		if c.rank == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestInvalidWorldSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

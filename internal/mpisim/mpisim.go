package mpisim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// World is a fixed set of ranks that meet at barriers.
type World struct {
	size int
	// arrive[r] is rank 0's mailbox for rank r's barrier arrival, and
	// release[r] is rank r's mailbox for rank 0's release. One slot each
	// is enough: a rank cannot reach its next barrier before the previous
	// one released it.
	arrive, release []chan struct{}
	messages        atomic.Int64
}

// TrafficStats counts the messages a world's ranks have sent.
type TrafficStats struct {
	Messages int64
}

// NewWorld creates a world of n ranks. It panics unless n is positive.
func NewWorld(n int) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpisim: world size %d must be positive", n))
	}
	w := &World{size: n, arrive: make([]chan struct{}, n), release: make([]chan struct{}, n)}
	for r := 0; r < n; r++ {
		w.arrive[r] = make(chan struct{}, 1)
		w.release[r] = make(chan struct{}, 1)
	}
	return w
}

// Stats returns the cumulative message count.
func (w *World) Stats() TrafficStats {
	return TrafficStats{Messages: w.messages.Load()}
}

// Comm is a rank's handle onto the world.
type Comm struct {
	world *World
	rank  int
}

// Run executes fn on every rank, one goroutine each, and blocks until
// every rank returns. A panic on a rank becomes that rank's error, and the
// first error in rank order is returned. A rank that exits while others
// wait for it at a barrier leaves them, and Run, blocked for good.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("mpisim: rank %d panicked: %v", rank, rec)
				}
			}()
			errs[rank] = fn(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// Barrier blocks until every rank has entered it: each rank sends rank 0
// an arrival, and rank 0, once it has them all, sends each a release —
// 2(P-1) messages.
func (c *Comm) Barrier() {
	w := c.world
	if c.rank != 0 {
		w.send(w.arrive[c.rank])
		<-w.release[c.rank]
		return
	}
	for r := 1; r < w.size; r++ {
		<-w.arrive[r]
	}
	for r := 1; r < w.size; r++ {
		w.send(w.release[r])
	}
}

func (w *World) send(mailbox chan struct{}) {
	w.messages.Add(1)
	mailbox <- struct{}{}
}

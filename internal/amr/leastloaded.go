package amr

// leastLoaded is the greedy placement's bin chooser: a binary min-heap of
// bins keyed (load, count, id), so the bin an item goes to is the one a
// linear scan with strict-< comparisons would pick — least load, then
// fewest items, then lowest id — in O(log bins) instead of O(bins).
type leastLoaded []loadBin

type loadBin struct {
	load  int64
	count int
	id    int
}

func (a loadBin) less(b loadBin) bool {
	if a.load != b.load {
		return a.load < b.load
	}
	if a.count != b.count {
		return a.count < b.count
	}
	return a.id < b.id
}

// newLeastLoaded returns empty bins 0..n-1, leaving out the ids in
// avoid. Bins are built in id order, and a sorted array of equal-load
// bins is already a heap.
func newLeastLoaded(n int, avoid map[int]bool) leastLoaded {
	h := make(leastLoaded, 0, n)
	for id := 0; id < n; id++ {
		if !avoid[id] {
			h = append(h, loadBin{id: id})
		}
	}
	return h
}

// place puts an item of weight w on the least-loaded bin and returns that
// bin's id. Only the root's key changes, so one sift-down restores the
// heap.
func (h leastLoaded) place(w int64) int {
	id := h[0].id
	h[0].load += w
	h[0].count++
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return id
}

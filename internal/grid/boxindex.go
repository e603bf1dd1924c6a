package grid

import "sort"

// BoxIndex is a bucketed spatial hash over a fixed set of boxes. It answers
// "which boxes intersect this region?" and "which box owns this point?" in
// ~O(1) per query instead of the O(N) all-boxes scan, which is what turns
// the AMR neighbor-search hot paths (ghost exchange, fill-patch, reflux)
// from O(N^2) into O(N) in the number of boxes.
//
// The index is immutable after construction and safe for concurrent
// queries. Callers that mutate the underlying box set must build a new
// index; amr.BoxArray couples index lifetime to array identity via a
// content fingerprint so stale indexes cannot survive a regrid.
type BoxIndex struct {
	boxes   []Box
	bounds  Box // bounding box of all indexed boxes
	cellX   int // bucket width in cells
	cellY   int // bucket height in cells
	nbx     int // buckets along x
	nby     int // buckets along y
	buckets [][]int32
}

// NewBoxIndex builds an index over boxes. The slice is retained (not
// copied) and must not be mutated afterwards. Empty boxes are indexed
// nowhere and never returned by queries.
func NewBoxIndex(boxes []Box) *BoxIndex {
	idx := &BoxIndex{boxes: boxes}
	var sumX, sumY int64
	n := 0
	bounds := Empty()
	for _, b := range boxes {
		if b.IsEmpty() {
			continue
		}
		s := b.Size()
		sumX += int64(s.X)
		sumY += int64(s.Y)
		n++
		if bounds.IsEmpty() {
			bounds = b
		} else {
			bounds.Lo = bounds.Lo.Min(b.Lo)
			bounds.Hi = bounds.Hi.Max(b.Hi)
		}
	}
	idx.bounds = bounds
	if n == 0 {
		return idx
	}
	// Bucket size ~ the average box size, so a typical box lands in O(1)
	// buckets and a typical bucket holds O(1) boxes.
	idx.cellX = int(sumX/int64(n)) + 1
	idx.cellY = int(sumY/int64(n)) + 1
	ext := bounds.Size()
	// Cap the bucket count: sparse levels (an annulus of fine boxes in a
	// large bounding box) must not blow up memory.
	for {
		idx.nbx = (ext.X + idx.cellX - 1) / idx.cellX
		idx.nby = (ext.Y + idx.cellY - 1) / idx.cellY
		if idx.nbx*idx.nby <= 8*n+64 {
			break
		}
		idx.cellX *= 2
		idx.cellY *= 2
	}
	idx.buckets = make([][]int32, idx.nbx*idx.nby)
	for i, b := range boxes {
		if b.IsEmpty() {
			continue
		}
		bx0, by0 := idx.bucketOf(b.Lo)
		bx1, by1 := idx.bucketOf(b.Hi)
		for by := by0; by <= by1; by++ {
			for bx := bx0; bx <= bx1; bx++ {
				k := by*idx.nbx + bx
				idx.buckets[k] = append(idx.buckets[k], int32(i))
			}
		}
	}
	return idx
}

// bucketOf maps a cell (clamped into bounds) to bucket coordinates.
func (idx *BoxIndex) bucketOf(p IntVect) (bx, by int) {
	bx = (p.X - idx.bounds.Lo.X) / idx.cellX
	by = (p.Y - idx.bounds.Lo.Y) / idx.cellY
	return
}

// Intersecting appends the indices of all boxes intersecting b to out and
// returns it, in ascending index order with no duplicates. Passing a
// reusable out slice (sliced to zero length) avoids per-query allocation.
func (idx *BoxIndex) Intersecting(b Box, out []int) []int {
	if len(idx.buckets) == 0 {
		return out
	}
	q := b.Intersect(idx.bounds)
	if q.IsEmpty() {
		return out
	}
	bx0, by0 := idx.bucketOf(q.Lo)
	bx1, by1 := idx.bucketOf(q.Hi)
	start := len(out)
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			for _, i := range idx.buckets[by*idx.nbx+bx] {
				if idx.boxes[i].Intersects(b) {
					out = append(out, int(i))
				}
			}
		}
	}
	// A box spanning multiple queried buckets appears once per bucket;
	// sort + compact restores the deterministic ascending order.
	hits := out[start:]
	if len(hits) > 1 {
		sort.Ints(hits)
		w := 1
		for r := 1; r < len(hits); r++ {
			if hits[r] != hits[r-1] {
				hits[w] = hits[r]
				w++
			}
		}
		out = out[:start+w]
	}
	return out
}

// Owner returns the lowest index of a box containing cell p, or -1 if no
// box covers it. For disjoint box sets this is the unique owner; for
// overlapping sets it matches the first hit of an ascending linear scan.
func (idx *BoxIndex) Owner(p IntVect) int {
	if len(idx.buckets) == 0 || !idx.bounds.Contains(p) {
		return -1
	}
	bx, by := idx.bucketOf(p)
	best := -1
	for _, i := range idx.buckets[by*idx.nbx+bx] {
		if idx.boxes[i].Contains(p) && (best < 0 || int(i) < best) {
			best = int(i)
		}
	}
	return best
}

// Contains reports whether any indexed box covers cell p.
func (idx *BoxIndex) Contains(p IntVect) bool { return idx.Owner(p) >= 0 }

// FingerprintBoxes computes an FNV-1a content hash of a box list. Two
// lists fingerprint equal iff they hold the same boxes in the same order
// (up to hash collision, which is negligible at 64 bits). Plan caches key
// on fingerprints so metadata computed for one grid generation can never
// be applied to another.
func FingerprintBoxes(boxes []Box) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v int) {
		u := uint64(v)
		for k := 0; k < 8; k++ {
			h ^= u & 0xff
			h *= prime64
			u >>= 8
		}
	}
	mix(len(boxes))
	for _, b := range boxes {
		mix(b.Lo.X)
		mix(b.Lo.Y)
		mix(b.Hi.X)
		mix(b.Hi.Y)
	}
	return h
}

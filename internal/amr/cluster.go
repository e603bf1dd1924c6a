package amr

import (
	"cmp"
	"math"
	"slices"

	"amrproxyio/internal/grid"
)

// This file implements grid generation from tagged cells: the
// Berger–Rigoutsos point-clustering algorithm AMReX uses, plus the
// blocking-factor / max-grid-size post-processing that turns raw clusters
// into a legal BoxArray for the next finer level.

// TagSet is a deduplicated set of tagged cells in a level's index space,
// stored as row buckets: rows[j] holds the X coordinates of the tags at
// Y = y0+j. Add appends to its row, skipping an X equal to the row's last
// one, so a row filled in increasing X is already sorted and unique; a
// row that got an out-of-order X is sorted and compacted on the first
// read. Points therefore come out in (Y, X) order without a global sort,
// with no hashing anywhere. Memory is O(Y extent of the tags + tags):
// the rows cover the Y range the tags touch, plus growth headroom.
// Because reads settle rows in place, a TagSet is not safe for
// concurrent use, even by readers only.
type TagSet struct {
	y0    int
	rows  [][]int
	slab  []int // backing store rows are carved from
	n     int   // tags; exact when !dirty
	dirty bool  // some row may hold out-of-order or repeated X
}

// NewTagSet returns an empty tag set.
func NewTagSet() *TagSet { return &TagSet{} }

// Add tags a cell.
func (t *TagSet) Add(p grid.IntVect) {
	j := p.Y - t.y0
	if j < 0 || j >= len(t.rows) {
		t.grow(p.Y)
		j = p.Y - t.y0
	}
	row := t.rows[j]
	if k := len(row); k > 0 {
		if p.X == row[k-1] {
			return
		}
		if p.X < row[k-1] {
			t.dirty = true
		}
	}
	if len(row) == cap(row) {
		row = t.regrow(row)
	}
	t.rows[j] = append(row, p.X)
	t.n++
}

// regrow moves a full row to a segment of twice its capacity carved from
// the slab, so a set allocates O(log tags) times rather than once per
// row growth; abandoned segments total less than the live rows.
func (t *TagSet) regrow(row []int) []int {
	n := max(2*cap(row), 4)
	if cap(t.slab)-len(t.slab) < n {
		t.slab = make([]int, 0, max(2*cap(t.slab), n, 256))
	}
	k := len(t.slab)
	t.slab = t.slab[:k+n]
	return append(t.slab[k:k:k+n], row...)
}

// grow widens the row range to cover y, with headroom of half the new
// span on the side it grew, so a stream of Adds moving away from the
// first one regrows O(log span) times.
func (t *TagSet) grow(y int) {
	if len(t.rows) == 0 {
		t.y0, t.rows = y, make([][]int, 1)
		return
	}
	lo, hi := min(t.y0, y), max(t.y0+len(t.rows), y+1)
	pad := (hi-lo)/2 + 1
	if y < t.y0 {
		lo -= pad
	} else {
		hi += pad
	}
	rows := make([][]int, hi-lo)
	copy(rows[t.y0-lo:], t.rows)
	t.y0, t.rows = lo, rows
}

// settle sorts and compacts every row that took an out-of-order X.
func (t *TagSet) settle() {
	if !t.dirty {
		return
	}
	t.n = 0
	for j, row := range t.rows {
		for k := 1; k < len(row); k++ {
			if row[k] <= row[k-1] {
				slices.Sort(row)
				row = slices.Compact(row)
				t.rows[j] = row
				break
			}
		}
		t.n += len(row)
	}
	t.dirty = false
}

// Len returns the number of tagged cells.
func (t *TagSet) Len() int {
	t.settle()
	return t.n
}

// Points returns the tags in (Y, X) order.
func (t *TagSet) Points() []grid.IntVect {
	t.settle()
	out := make([]grid.IntVect, 0, t.n)
	for j, row := range t.rows {
		for _, x := range row {
			out = append(out, grid.IntVect{X: x, Y: t.y0 + j})
		}
	}
	return out
}

// Buffer expands every tag by n cells in each direction (the AMReX
// n_error_buf safety margin), clipped to domain. Each row's tags widen
// into merged X intervals, and each output row is the union of the
// intervals of the 2n+1 rows around it, so output rows are built
// sorted and unique.
func (t *TagSet) Buffer(n int, domain grid.Box) *TagSet {
	if n <= 0 {
		return t
	}
	t.settle()
	out := NewTagSet()
	lo := max(t.y0-n, domain.Lo.Y)
	hi := min(t.y0+len(t.rows)-1+n, domain.Hi.Y)
	if t.n == 0 || lo > hi {
		return out
	}
	// Rows widen into X intervals back to back: row j's intervals are
	// spans[first[j]:first[j+1]], so the rows around y are one run.
	var spans []xSpan
	first := make([]int, len(t.rows)+1)
	for j, row := range t.rows {
		spans = widen(spans, row, n, domain.Lo.X, domain.Hi.X)
		first[j+1] = len(spans)
	}
	// Output rows are built back to back in one array, then sliced out
	// with cap = len, so a later Add to one moves it rather than
	// overwriting its neighbor.
	var xs, ends []int
	var near []xSpan
	for y := lo; y <= hi; y++ {
		j0, j1 := max(y-n-t.y0, 0), min(y+n-t.y0, len(t.rows)-1)
		near = append(near[:0], spans[first[j0]:first[j1+1]]...)
		slices.SortFunc(near, func(a, b xSpan) int { return cmp.Compare(a.lo, b.lo) })
		next := math.MinInt // first X not yet emitted
		for _, s := range near {
			for x := max(s.lo, next); x <= s.hi; x++ {
				xs = append(xs, x)
			}
			next = max(next, s.hi+1)
		}
		ends = append(ends, len(xs))
	}
	out.y0, out.rows, out.n = lo, make([][]int, len(ends)), len(xs)
	start := 0
	for j, end := range ends {
		out.rows[j] = xs[start:end:end]
		start = end
	}
	return out
}

// xSpan is an inclusive run of X coordinates.
type xSpan struct{ lo, hi int }

// widen appends the merged intervals [x-n, x+n] of a sorted, unique row,
// clipped to [xlo, xhi], to dst.
func widen(dst []xSpan, row []int, n, xlo, xhi int) []xSpan {
	start := len(dst)
	for _, x := range row {
		s := xSpan{max(x-n, xlo), min(x+n, xhi)}
		if s.lo > s.hi {
			continue
		}
		if k := len(dst) - 1; k >= start && s.lo <= dst[k].hi+1 {
			dst[k].hi = s.hi
			continue
		}
		dst = append(dst, s)
	}
	return dst
}

// Coarsen maps tags to a coarser index space (deduplicating). Rows are
// walked in order, so each coarse row receives ratio sorted runs.
func (t *TagSet) Coarsen(ratio int) *TagSet {
	if ratio <= 1 {
		return t
	}
	t.settle()
	out := NewTagSet()
	for j, row := range t.rows {
		if len(row) == 0 {
			continue
		}
		y := t.y0 + j
		for _, x := range row {
			out.Add(grid.IntVect{X: x, Y: y}.Coarsen(ratio))
		}
	}
	return out
}

// boundingBox returns the minimal box containing all points (which must be
// non-empty).
func boundingBox(pts []grid.IntVect) grid.Box {
	lo, hi := pts[0], pts[0]
	for _, p := range pts[1:] {
		lo = lo.Min(p)
		hi = hi.Max(p)
	}
	return grid.NewBox(lo, hi)
}

// Cluster runs Berger–Rigoutsos on the tag points: recursively split the
// bounding box at signature holes or Laplacian inflection points until
// every cluster's fill efficiency (tags / box cells) reaches eff. The
// returned boxes are disjoint and cover every tag. pts is not modified:
// the recursion partitions one copy of it in place.
func Cluster(pts []grid.IntVect, eff float64) []grid.Box {
	if len(pts) == 0 {
		return nil
	}
	var out []grid.Box
	clusterRecurse(slices.Clone(pts), eff, &out, 0)
	return out
}

const maxClusterDepth = 48

// clusterRecurse clusters pts, reordering it: each split partitions the
// points in place, those below the split plane first. The order within
// a half is not kept, which nothing reads: a cluster's bounding box and
// signatures depend only on which points it holds.
func clusterRecurse(pts []grid.IntVect, eff float64, out *[]grid.Box, depth int) {
	bb := boundingBox(pts)
	fill := float64(len(pts)) / float64(bb.NumPts())
	if fill >= eff || bb.NumPts() <= 4 || depth >= maxClusterDepth {
		*out = append(*out, bb)
		return
	}
	dir, split, ok := findSplit(pts, bb)
	if !ok {
		*out = append(*out, bb)
		return
	}
	below := func(p grid.IntVect) bool {
		if dir == 1 {
			return p.Y < split
		}
		return p.X < split
	}
	k, end := 0, len(pts)
	for k < end {
		if below(pts[k]) {
			k++
		} else {
			end--
			pts[k], pts[end] = pts[end], pts[k]
		}
	}
	if k == 0 || k == len(pts) { // degenerate split; accept the box
		*out = append(*out, bb)
		return
	}
	clusterRecurse(pts[:k], eff, out, depth+1)
	clusterRecurse(pts[k:], eff, out, depth+1)
}

// findSplit chooses the split plane. Preference order follows
// Berger–Rigoutsos: (1) the widest signature hole, (2) the strongest
// Laplacian inflection, (3) bisection of the long direction.
func findSplit(pts []grid.IntVect, bb grid.Box) (dir, split int, ok bool) {
	sigX := signature(pts, bb, 0)
	sigY := signature(pts, bb, 1)

	// 1) Holes: zero-signature planes strictly inside the box.
	if s, found := bestHole(sigX); found {
		return 0, bb.Lo.X + s, true
	}
	if s, found := bestHole(sigY); found {
		return 1, bb.Lo.Y + s, true
	}

	// 2) Laplacian inflection with the largest jump.
	bestDir, bestIdx, bestMag := -1, -1, 0
	if idx, mag, found := bestInflection(sigX); found {
		bestDir, bestIdx, bestMag = 0, idx, mag
	}
	if idx, mag, found := bestInflection(sigY); found && mag > bestMag {
		bestDir, bestIdx, bestMag = 1, idx, mag
	}
	if bestDir >= 0 {
		if bestDir == 0 {
			return 0, bb.Lo.X + bestIdx, true
		}
		return 1, bb.Lo.Y + bestIdx, true
	}

	// 3) Bisect the long direction if it is at least 2 wide.
	size := bb.Size()
	if size.X >= size.Y && size.X >= 2 {
		return 0, bb.Lo.X + size.X/2, true
	}
	if size.Y >= 2 {
		return 1, bb.Lo.Y + size.Y/2, true
	}
	return 0, 0, false
}

// signature histograms tag counts along direction dir (0 = per-column in
// X, 1 = per-row in Y).
func signature(pts []grid.IntVect, bb grid.Box, dir int) []int {
	var n, lo int
	if dir == 0 {
		n, lo = bb.Size().X, bb.Lo.X
	} else {
		n, lo = bb.Size().Y, bb.Lo.Y
	}
	sig := make([]int, n)
	for _, p := range pts {
		if dir == 0 {
			sig[p.X-lo]++
		} else {
			sig[p.Y-lo]++
		}
	}
	return sig
}

// bestHole returns the split offset at the middle of the widest run of
// zero-signature planes strictly inside (0, len).
func bestHole(sig []int) (int, bool) {
	bestStart, bestLen := -1, 0
	run, runStart := 0, -1
	// A tight bounding box guarantees sig[0] > 0 and sig[len-1] > 0, so any
	// zero run is strictly interior.
	for i := 1; i < len(sig)-1; i++ {
		if sig[i] == 0 {
			if run == 0 {
				runStart = i
			}
			run++
			if run > bestLen {
				bestStart, bestLen = runStart, run
			}
		} else {
			run = 0
		}
	}
	if bestLen == 0 || bestStart == 0 {
		return 0, false
	}
	return bestStart + bestLen/2, true
}

// bestInflection finds the index with the largest |Δlaplacian| sign
// change, the classic Berger–Rigoutsos edge detector.
func bestInflection(sig []int) (idx, mag int, ok bool) {
	n := len(sig)
	if n < 4 {
		return 0, 0, false
	}
	lap := make([]int, n)
	for i := 1; i < n-1; i++ {
		lap[i] = sig[i+1] - 2*sig[i] + sig[i-1]
	}
	best, bestMag := -1, 0
	for i := 1; i < n-2; i++ {
		if lap[i]*lap[i+1] < 0 {
			m := abs(lap[i] - lap[i+1])
			if m > bestMag {
				best, bestMag = i+1, m
			}
		}
	}
	if best <= 0 || best >= n {
		return 0, 0, false
	}
	return best, bestMag, true
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// MakeFineBoxArray converts level-l tags into the BoxArray for level l+1:
//
//  1. buffer tags by bufferCells (clipped to the level-l domain),
//  2. coarsen by blockingFactor/ratio so that refined boxes land aligned,
//  3. Berger–Rigoutsos cluster at gridEff efficiency,
//  4. refine back, clip to the domain, refine by ratio into l+1 index
//     space, and
//  5. split to maxGridSize with blockingFactor alignment.
//
// The result is disjoint and covers every (buffered) tag refined by ratio.
func MakeFineBoxArray(tags *TagSet, levelDomain grid.Box, ratio, blockingFactor, maxGridSize int, gridEff float64, bufferCells int) BoxArray {
	if tags.Len() == 0 {
		return NewBoxArray(nil)
	}
	buffered := tags.Buffer(bufferCells, levelDomain)
	cbf := blockingFactor / ratio
	if cbf < 1 {
		cbf = 1
	}
	coarse := buffered.Coarsen(cbf)
	raw := Cluster(coarse.Points(), gridEff)
	var fine []grid.Box
	for _, b := range raw {
		lb := b.Refine(cbf).Intersect(levelDomain)
		if lb.IsEmpty() {
			continue
		}
		fb := lb.Refine(ratio)
		fine = append(fine, fb.SplitMax(maxGridSize, blockingFactor)...)
	}
	return NewBoxArray(fine)
}

package grid

import "fmt"

// Box is a cell-centered rectangular region of the 2D index space. Both
// corners are inclusive: the box covers cells (i,j) with
// Lo.X <= i <= Hi.X and Lo.Y <= j <= Hi.Y.
//
// The zero Box (Lo == Hi == (0,0)) is a valid one-cell box; use Empty() to
// construct an explicitly invalid/empty box.
type Box struct {
	Lo, Hi IntVect
}

// NewBox builds a box from inclusive corners.
func NewBox(lo, hi IntVect) Box { return Box{Lo: lo, Hi: hi} }

// BoxFromSize builds a box anchored at lo covering size.X x size.Y cells.
func BoxFromSize(lo, size IntVect) Box {
	return Box{Lo: lo, Hi: IntVect{lo.X + size.X - 1, lo.Y + size.Y - 1}}
}

// Empty returns a canonical empty box (Hi < Lo in every direction).
func Empty() Box { return Box{Lo: IntVect{0, 0}, Hi: IntVect{-1, -1}} }

// IsEmpty reports whether the box contains no cells.
func (b Box) IsEmpty() bool { return b.Hi.X < b.Lo.X || b.Hi.Y < b.Lo.Y }

// Size returns the number of cells along each direction.
func (b Box) Size() IntVect {
	if b.IsEmpty() {
		return IntVect{0, 0}
	}
	return IntVect{b.Hi.X - b.Lo.X + 1, b.Hi.Y - b.Lo.Y + 1}
}

// NumPts returns the total number of cells in the box.
func (b Box) NumPts() int64 {
	s := b.Size()
	return int64(s.X) * int64(s.Y)
}

// Contains reports whether cell p lies inside the box.
func (b Box) Contains(p IntVect) bool {
	return p.AllGE(b.Lo) && p.AllLE(b.Hi)
}

// ContainsBox reports whether o is entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	if o.IsEmpty() {
		return true
	}
	return o.Lo.AllGE(b.Lo) && o.Hi.AllLE(b.Hi)
}

// Intersect returns the overlap of b and o (possibly empty).
func (b Box) Intersect(o Box) Box {
	r := Box{Lo: b.Lo.Max(o.Lo), Hi: b.Hi.Min(o.Hi)}
	if r.IsEmpty() {
		return Empty()
	}
	return r
}

// Intersects reports whether b and o share at least one cell.
func (b Box) Intersects(o Box) bool { return !b.Intersect(o).IsEmpty() }

// Grow expands the box by n cells in every direction (negative n shrinks).
func (b Box) Grow(n int) Box {
	return Box{Lo: IntVect{b.Lo.X - n, b.Lo.Y - n}, Hi: IntVect{b.Hi.X + n, b.Hi.Y + n}}
}

// Refine maps the box to the index space that is ratio times finer. A
// cell-centered box [lo,hi] refines to [lo*r, (hi+1)*r - 1].
func (b Box) Refine(ratio int) Box {
	if b.IsEmpty() {
		return b
	}
	return Box{
		Lo: b.Lo.Refine(ratio),
		Hi: IntVect{(b.Hi.X+1)*ratio - 1, (b.Hi.Y+1)*ratio - 1},
	}
}

// Coarsen maps the box to the index space ratio times coarser, covering
// every coarse cell that overlaps the fine box.
func (b Box) Coarsen(ratio int) Box {
	if b.IsEmpty() {
		return b
	}
	return Box{Lo: b.Lo.Coarsen(ratio), Hi: b.Hi.Coarsen(ratio)}
}

// ChopX splits the box at index i (the right part starts at i). The caller
// must pass Lo.X < i <= Hi.X.
func (b Box) ChopX(i int) (left, right Box) {
	left = Box{Lo: b.Lo, Hi: IntVect{i - 1, b.Hi.Y}}
	right = Box{Lo: IntVect{i, b.Lo.Y}, Hi: b.Hi}
	return
}

// ChopY splits the box at index j (the upper part starts at j). The caller
// must pass Lo.Y < j <= Hi.Y.
func (b Box) ChopY(j int) (bottom, top Box) {
	bottom = Box{Lo: b.Lo, Hi: IntVect{b.Hi.X, j - 1}}
	top = Box{Lo: IntVect{b.Lo.X, j}, Hi: b.Hi}
	return
}

func (b Box) String() string {
	return fmt.Sprintf("[%s..%s]", b.Lo, b.Hi)
}

// Equal reports exact equality of corners.
func (b Box) Equal(o Box) bool { return b.Lo == o.Lo && b.Hi == o.Hi }

// SplitMax recursively halves the box along its long direction until every
// piece is at most maxSize cells in each direction, keeping piece boundaries
// aligned to blockingFactor. blockingFactor must evenly divide maxSize for
// alignment to be guaranteed; pass 1 to disable alignment.
func (b Box) SplitMax(maxSize, blockingFactor int) []Box {
	if b.IsEmpty() {
		return nil
	}
	s := b.Size()
	if s.X <= maxSize && s.Y <= maxSize {
		return []Box{b}
	}
	dir := 0
	if s.Y > s.X {
		dir = 1
	}
	var lo, hi Box
	if dir == 0 {
		mid := b.Lo.X + alignDown(s.X/2, blockingFactor)
		if mid <= b.Lo.X {
			mid = b.Lo.X + blockingFactor
		}
		if mid > b.Hi.X {
			return []Box{b}
		}
		lo, hi = b.ChopX(mid)
	} else {
		mid := b.Lo.Y + alignDown(s.Y/2, blockingFactor)
		if mid <= b.Lo.Y {
			mid = b.Lo.Y + blockingFactor
		}
		if mid > b.Hi.Y {
			return []Box{b}
		}
		lo, hi = b.ChopY(mid)
	}
	out := b.appendSplit(nil, lo, maxSize, blockingFactor)
	out = b.appendSplit(out, hi, maxSize, blockingFactor)
	return out
}

func (Box) appendSplit(dst []Box, b Box, maxSize, blockingFactor int) []Box {
	return append(dst, b.SplitMax(maxSize, blockingFactor)...)
}

func alignDown(v, m int) int {
	if m <= 1 {
		return v
	}
	return v - v%m
}

// Difference returns b minus o as a set of disjoint boxes. If the boxes do
// not intersect the result is {b}.
func (b Box) Difference(o Box) []Box {
	isect := b.Intersect(o)
	if isect.IsEmpty() {
		if b.IsEmpty() {
			return nil
		}
		return []Box{b}
	}
	if isect.Equal(b) {
		return nil
	}
	var out []Box
	rem := b
	// Peel off slabs left/right of the intersection in X, then below/above in Y.
	if rem.Lo.X < isect.Lo.X {
		var left Box
		left, rem = rem.ChopX(isect.Lo.X)
		out = append(out, left)
	}
	if rem.Hi.X > isect.Hi.X {
		var right Box
		rem, right = rem.ChopX(isect.Hi.X + 1)
		out = append(out, right)
	}
	if rem.Lo.Y < isect.Lo.Y {
		var bottom Box
		bottom, rem = rem.ChopY(isect.Lo.Y)
		out = append(out, bottom)
	}
	if rem.Hi.Y > isect.Hi.Y {
		var top Box
		rem, top = rem.ChopY(isect.Hi.Y + 1)
		out = append(out, top)
	}
	return out
}

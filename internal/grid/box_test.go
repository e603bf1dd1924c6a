package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntVectArithmetic(t *testing.T) {
	a, b := IV(3, -2), IV(-1, 5)
	if got := a.Add(b); got != IV(2, 3) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != IV(4, -7) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(3); got != IV(9, -6) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Min(b); got != IV(-1, -2) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != IV(3, 5) {
		t.Errorf("Max = %v", got)
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{7, 2, 3}, {-7, 2, -4}, {8, 2, 4}, {-8, 2, -4},
		{0, 4, 0}, {-1, 4, -1}, {-4, 4, -1}, {-5, 4, -2},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIntVectCoarsenRefine(t *testing.T) {
	v := IV(-3, 7)
	if got := v.Coarsen(2); got != IV(-2, 3) {
		t.Errorf("Coarsen = %v", got)
	}
	if got := v.Refine(2); got != IV(-6, 14) {
		t.Errorf("Refine = %v", got)
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(IV(0, 0), IV(3, 7))
	if b.IsEmpty() {
		t.Fatal("box should not be empty")
	}
	if got := b.Size(); got != IV(4, 8) {
		t.Errorf("Size = %v", got)
	}
	if got := b.NumPts(); got != 32 {
		t.Errorf("NumPts = %d", got)
	}
	if !b.Contains(IV(3, 7)) || b.Contains(IV(4, 7)) {
		t.Error("Contains wrong at boundary")
	}
	e := Empty()
	if !e.IsEmpty() || e.NumPts() != 0 {
		t.Error("Empty() not empty")
	}
}

func TestBoxFromSize(t *testing.T) {
	b := BoxFromSize(IV(2, 3), IV(4, 5))
	if b.Lo != IV(2, 3) || b.Hi != IV(5, 7) {
		t.Errorf("BoxFromSize = %v", b)
	}
}

func TestBoxIntersect(t *testing.T) {
	a := NewBox(IV(0, 0), IV(9, 9))
	b := NewBox(IV(5, 5), IV(15, 15))
	got := a.Intersect(b)
	want := NewBox(IV(5, 5), IV(9, 9))
	if !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	c := NewBox(IV(20, 20), IV(25, 25))
	if !a.Intersect(c).IsEmpty() {
		t.Error("disjoint boxes should intersect empty")
	}
	if a.Intersects(c) {
		t.Error("Intersects(disjoint) = true")
	}
}

func TestBoxGrow(t *testing.T) {
	b := NewBox(IV(2, 2), IV(5, 5))
	g := b.Grow(2)
	if !g.Equal(NewBox(IV(0, 0), IV(7, 7))) {
		t.Errorf("Grow = %v", g)
	}
	if !g.Grow(-2).Equal(b) {
		t.Error("Grow(-n) does not invert Grow(n)")
	}
}

func TestBoxRefineCoarsen(t *testing.T) {
	b := NewBox(IV(1, 2), IV(3, 4))
	r := b.Refine(2)
	if !r.Equal(NewBox(IV(2, 4), IV(7, 9))) {
		t.Errorf("Refine = %v", r)
	}
	if !r.Coarsen(2).Equal(b) {
		t.Error("Coarsen does not invert Refine")
	}
	// Refining preserves cell count times ratio^2.
	if r.NumPts() != b.NumPts()*4 {
		t.Errorf("Refine NumPts = %d, want %d", r.NumPts(), b.NumPts()*4)
	}
}

func TestBoxRefineCoarsenProperty(t *testing.T) {
	f := func(lox, loy int16, sx, sy uint8, ratioBit bool) bool {
		ratio := 2
		if ratioBit {
			ratio = 4
		}
		b := BoxFromSize(IV(int(lox), int(loy)), IV(int(sx%32)+1, int(sy%32)+1))
		r := b.Refine(ratio)
		// Coarsen inverts refine exactly.
		if !r.Coarsen(ratio).Equal(b) {
			return false
		}
		return r.NumPts() == b.NumPts()*int64(ratio)*int64(ratio)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoxChop(t *testing.T) {
	b := NewBox(IV(0, 0), IV(9, 9))
	l, r := b.ChopX(4)
	if !l.Equal(NewBox(IV(0, 0), IV(3, 9))) || !r.Equal(NewBox(IV(4, 0), IV(9, 9))) {
		t.Errorf("ChopX = %v | %v", l, r)
	}
	if l.NumPts()+r.NumPts() != b.NumPts() {
		t.Error("ChopX loses cells")
	}
	bt, tp := b.ChopY(7)
	if bt.NumPts()+tp.NumPts() != b.NumPts() {
		t.Error("ChopY loses cells")
	}
	if tp.Lo.Y != 7 {
		t.Errorf("ChopY top starts at %d", tp.Lo.Y)
	}
}

func TestBoxSplitMax(t *testing.T) {
	b := NewBox(IV(0, 0), IV(255, 255))
	pieces := b.SplitMax(64, 8)
	var total int64
	for _, p := range pieces {
		s := p.Size()
		if s.X > 64 || s.Y > 64 {
			t.Errorf("piece %v exceeds max size", p)
		}
		if p.Lo.X%8 != 0 || p.Lo.Y%8 != 0 {
			t.Errorf("piece %v not aligned to blocking factor", p)
		}
		total += p.NumPts()
	}
	if total != b.NumPts() {
		t.Errorf("SplitMax total = %d, want %d", total, b.NumPts())
	}
	// Pieces must be pairwise disjoint.
	for i := range pieces {
		for j := i + 1; j < len(pieces); j++ {
			if pieces[i].Intersects(pieces[j]) {
				t.Errorf("pieces %v and %v overlap", pieces[i], pieces[j])
			}
		}
	}
}

func TestBoxSplitMaxSmallStaysWhole(t *testing.T) {
	b := NewBox(IV(0, 0), IV(15, 15))
	pieces := b.SplitMax(64, 8)
	if len(pieces) != 1 || !pieces[0].Equal(b) {
		t.Errorf("small box split unexpectedly: %v", pieces)
	}
}

func TestBoxDifference(t *testing.T) {
	b := NewBox(IV(0, 0), IV(9, 9))
	hole := NewBox(IV(3, 3), IV(6, 6))
	parts := b.Difference(hole)
	var total int64
	for _, p := range parts {
		if p.Intersects(hole) {
			t.Errorf("difference part %v overlaps hole", p)
		}
		total += p.NumPts()
	}
	if total != b.NumPts()-hole.NumPts() {
		t.Errorf("Difference total = %d, want %d", total, b.NumPts()-hole.NumPts())
	}
	// Disjoint: difference is the original.
	parts = b.Difference(NewBox(IV(20, 20), IV(22, 22)))
	if len(parts) != 1 || !parts[0].Equal(b) {
		t.Errorf("disjoint Difference = %v", parts)
	}
	// Fully covered: difference is empty.
	if parts := hole.Difference(b); len(parts) != 0 {
		t.Errorf("covered Difference = %v", parts)
	}
}

func TestBoxDifferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		b := BoxFromSize(IV(rng.Intn(10), rng.Intn(10)), IV(rng.Intn(12)+1, rng.Intn(12)+1))
		o := BoxFromSize(IV(rng.Intn(10), rng.Intn(10)), IV(rng.Intn(12)+1, rng.Intn(12)+1))
		parts := b.Difference(o)
		var total int64
		for i, p := range parts {
			if p.IsEmpty() {
				t.Fatalf("empty part in difference of %v minus %v", b, o)
			}
			if p.Intersects(o) {
				t.Fatalf("part %v intersects subtrahend %v", p, o)
			}
			if !b.ContainsBox(p) {
				t.Fatalf("part %v outside original %v", p, b)
			}
			for j := i + 1; j < len(parts); j++ {
				if p.Intersects(parts[j]) {
					t.Fatalf("overlapping parts %v, %v", p, parts[j])
				}
			}
			total += p.NumPts()
		}
		if want := b.NumPts() - b.Intersect(o).NumPts(); total != want {
			t.Fatalf("difference cells = %d, want %d (b=%v o=%v)", total, want, b, o)
		}
	}
}

func TestMortonOrdering(t *testing.T) {
	// The unit Z pattern around any anchor: +1 in x sets the low x bit, +1
	// in y sets the low y bit (one position up).
	base := Morton(0, 0)
	if Morton(1, 0) != base+1 || Morton(0, 1) != base+2 || Morton(1, 1) != base+3 {
		t.Errorf("Morton unit cells = %d %d %d (base %d)",
			Morton(1, 0), Morton(0, 1), Morton(1, 1), base)
	}
	// Monotone along the diagonal — including across the origin, which is
	// what the sign bias buys (plain uint32 truncation wraps negatives to
	// the top of the code range).
	prev := Morton(-100, -100)
	for d := -99; d < 100; d++ {
		m := Morton(d, d)
		if m <= prev {
			t.Fatalf("Morton not monotone on diagonal at %d", d)
		}
		prev = m
	}
}

// TestMortonNegativeCoordinates is the regression for the uint32-wrap bug:
// negative coordinates must order below non-negative ones, not above them.
func TestMortonNegativeCoordinates(t *testing.T) {
	if !(Morton(-1, 0) < Morton(0, 0)) {
		t.Errorf("Morton(-1,0)=%d not < Morton(0,0)=%d", Morton(-1, 0), Morton(0, 0))
	}
	if !(Morton(0, -1) < Morton(0, 0)) {
		t.Errorf("Morton(0,-1)=%d not < Morton(0,0)=%d", Morton(0, -1), Morton(0, 0))
	}
	// A sequence straddling the origin along one axis stays ordered.
	xs := []int{-8, -4, -1, 0, 1, 4, 8}
	for i := 1; i < len(xs); i++ {
		if !(Morton(xs[i-1], 0) < Morton(xs[i], 0)) {
			t.Fatalf("Morton x-order broken at %d -> %d", xs[i-1], xs[i])
		}
	}
}

func TestGeom(t *testing.T) {
	dom := NewBox(IV(0, 0), IV(31, 31))
	g := NewGeom(dom, [2]float64{0, 0}, [2]float64{1, 1})
	if g.CellSize[0] != 1.0/32 || g.CellSize[1] != 1.0/32 {
		t.Errorf("CellSize = %v", g.CellSize)
	}
	x, y := g.CellCenter(0, 0)
	if x != 0.5/32 || y != 0.5/32 {
		t.Errorf("CellCenter(0,0) = %g,%g", x, y)
	}
	fine := g.Refine(2)
	if fine.Domain.Size() != IV(64, 64) {
		t.Errorf("refined domain = %v", fine.Domain)
	}
	if fine.CellSize[0] != 1.0/64 {
		t.Errorf("refined dx = %g", fine.CellSize[0])
	}
	// Physical extent preserved.
	if x, y := fine.CellCenter(0, 0); x != 0.5/64 || y != 0.5/64 {
		t.Errorf("refined CellCenter(0,0) = %g,%g", x, y)
	}
}

func TestGeomCellCenterCoversDomain(t *testing.T) {
	dom := NewBox(IV(0, 0), IV(7, 3))
	g := NewGeom(dom, [2]float64{0, 0}, [2]float64{2, 1})
	x, y := g.CellCenter(7, 3)
	if x >= 2 || y >= 1 {
		t.Errorf("last cell center %g,%g outside domain", x, y)
	}
	if x != 2-0.5*g.CellSize[0] {
		t.Errorf("last center x = %g", x)
	}
	_ = y
}

package grid

import (
	"math/rand"
	"testing"
)

// randomBoxes generates n boxes with random position and size, possibly
// overlapping, inside roughly [0, span)^2.
func randomBoxes(rng *rand.Rand, n, span int) []Box {
	boxes := make([]Box, n)
	for i := range boxes {
		lo := IV(rng.Intn(span)-span/4, rng.Intn(span)-span/4)
		boxes[i] = BoxFromSize(lo, IV(rng.Intn(24)+1, rng.Intn(24)+1))
	}
	return boxes
}

// naiveIntersecting is the O(N) reference the index must reproduce.
func naiveIntersecting(boxes []Box, q Box) []int {
	var out []int
	for i, b := range boxes {
		if b.Intersects(q) {
			out = append(out, i)
		}
	}
	return out
}

func naiveOwner(boxes []Box, p IntVect) int {
	for i, b := range boxes {
		if b.Contains(p) {
			return i
		}
	}
	return -1
}

func TestBoxIndexMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		boxes := randomBoxes(rng, rng.Intn(60)+1, 200)
		idx := NewBoxIndex(boxes)
		for q := 0; q < 40; q++ {
			qb := BoxFromSize(
				IV(rng.Intn(300)-100, rng.Intn(300)-100),
				IV(rng.Intn(40)+1, rng.Intn(40)+1))
			got := idx.Intersecting(qb, nil)
			want := naiveIntersecting(boxes, qb)
			if len(got) != len(want) {
				t.Fatalf("iter %d query %v: got %v want %v", iter, qb, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("iter %d query %v: got %v want %v", iter, qb, got, want)
				}
			}
		}
		for q := 0; q < 80; q++ {
			p := IV(rng.Intn(300)-100, rng.Intn(300)-100)
			if got, want := idx.Owner(p), naiveOwner(boxes, p); got != want {
				t.Fatalf("iter %d owner(%v) = %d, want %d", iter, p, got, want)
			}
		}
	}
}

func TestBoxIndexEmptyAndDegenerate(t *testing.T) {
	idx := NewBoxIndex(nil)
	if got := idx.Intersecting(NewBox(IV(0, 0), IV(9, 9)), nil); len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
	if idx.Owner(IV(0, 0)) != -1 {
		t.Fatal("empty index owned a point")
	}
	// Empty boxes are indexed nowhere.
	idx = NewBoxIndex([]Box{Empty(), NewBox(IV(0, 0), IV(3, 3)), Empty()})
	if got := idx.Intersecting(NewBox(IV(-10, -10), IV(10, 10)), nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("expected only box 1, got %v", got)
	}
	if idx.Owner(IV(2, 2)) != 1 {
		t.Fatalf("owner = %d, want 1", idx.Owner(IV(2, 2)))
	}
}

// TestBoxIndexScratchReuse verifies the out-slice contract: appending to a
// reused scratch buffer yields the same results as fresh allocation.
func TestBoxIndexScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	boxes := randomBoxes(rng, 30, 100)
	idx := NewBoxIndex(boxes)
	var scratch []int
	for q := 0; q < 50; q++ {
		qb := BoxFromSize(IV(rng.Intn(120)-10, rng.Intn(120)-10), IV(rng.Intn(30)+1, rng.Intn(30)+1))
		scratch = idx.Intersecting(qb, scratch[:0])
		fresh := idx.Intersecting(qb, nil)
		if len(scratch) != len(fresh) {
			t.Fatalf("scratch %v != fresh %v", scratch, fresh)
		}
		for k := range fresh {
			if scratch[k] != fresh[k] {
				t.Fatalf("scratch %v != fresh %v", scratch, fresh)
			}
		}
	}
}

// TestBoxIndexSparse exercises the bucket-count cap: a few small boxes in
// a huge bounding box must stay cheap and correct.
func TestBoxIndexSparse(t *testing.T) {
	boxes := []Box{
		NewBox(IV(0, 0), IV(7, 7)),
		NewBox(IV(100000, 100000), IV(100007, 100007)),
		NewBox(IV(-50000, 70000), IV(-49993, 70007)),
	}
	idx := NewBoxIndex(boxes)
	for i, b := range boxes {
		got := idx.Intersecting(b, nil)
		if len(got) != 1 || got[0] != i {
			t.Fatalf("box %d: got %v", i, got)
		}
		if idx.Owner(b.Lo) != i {
			t.Fatalf("owner of %v = %d, want %d", b.Lo, idx.Owner(b.Lo), i)
		}
	}
}

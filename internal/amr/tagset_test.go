package amr

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"amrproxyio/internal/grid"
)

// mapTags is the hash-set TagSet the row buckets replaced, kept as the
// reference they must match.
type mapTags map[grid.IntVect]struct{}

func (m mapTags) points() []grid.IntVect {
	out := make([]grid.IntVect, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

func (m mapTags) buffer(n int, domain grid.Box) mapTags {
	out := mapTags{}
	for p := range m {
		for dj := -n; dj <= n; dj++ {
			for di := -n; di <= n; di++ {
				if q := grid.IV(p.X+di, p.Y+dj); domain.Contains(q) {
					out[q] = struct{}{}
				}
			}
		}
	}
	return out
}

func (m mapTags) coarsen(ratio int) mapTags {
	out := mapTags{}
	for p := range m {
		out[p.Coarsen(ratio)] = struct{}{}
	}
	return out
}

// makeFine is MakeFineBoxArray over the reference set.
func (m mapTags) makeFine(levelDomain grid.Box, ratio, blockingFactor, maxGridSize int, gridEff float64, bufferCells int) []grid.Box {
	if len(m) == 0 {
		return nil
	}
	buffered := m
	if bufferCells > 0 {
		buffered = m.buffer(bufferCells, levelDomain)
	}
	cbf := max(blockingFactor/ratio, 1)
	coarse := buffered
	if cbf > 1 {
		coarse = buffered.coarsen(cbf)
	}
	var fine []grid.Box
	for _, b := range Cluster(coarse.points(), gridEff) {
		lb := b.Refine(cbf).Intersect(levelDomain)
		if lb.IsEmpty() {
			continue
		}
		fine = append(fine, lb.Refine(ratio).SplitMax(maxGridSize, blockingFactor)...)
	}
	return fine
}

// randomTagStream draws a tag stream in one of three orders: (Y, X)
// sorted, shuffled, or rings walked by angle like the surrogate's front;
// every stream repeats cells and crosses negative coordinates.
func randomTagStream(rng *rand.Rand) []grid.IntVect {
	span := 1 + rng.Intn(60)
	off := grid.IV(rng.Intn(80)-60, rng.Intn(80)-60)
	n := rng.Intn(500)
	pts := make([]grid.IntVect, 0, 2*n)
	for k := 0; k < n; k++ {
		p := off.Add(grid.IV(rng.Intn(span), rng.Intn(span)))
		pts = append(pts, p)
		for rng.Intn(3) == 0 {
			pts = append(pts, p) // an immediate repeat
		}
	}
	for k := rng.Intn(n + 1); k > 0; k-- {
		pts = append(pts, pts[rng.Intn(len(pts))]) // a late repeat
	}
	switch rng.Intn(3) {
	case 0:
		slices.SortFunc(pts, func(a, b grid.IntVect) int {
			if a.Y != b.Y {
				return a.Y - b.Y
			}
			return a.X - b.X
		})
	case 1:
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	default:
		pts = pts[:0]
		r := float64(1 + rng.Intn(span))
		for th := 0.0; th < 2*math.Pi; th += 0.5 / r {
			pts = append(pts, off.Add(grid.IV(int(r*math.Cos(th)), int(r*math.Sin(th)))))
		}
	}
	return pts
}

func checkTags(t *testing.T, what string, got *TagSet, want mapTags) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", what, got.Len(), len(want))
	}
	if g, w := got.Points(), want.points(); !slices.Equal(g, w) {
		t.Fatalf("%s: Points =\n%v\nwant\n%v", what, g, w)
	}
}

func TestTagSetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5601))
	for iter := 0; iter < 500; iter++ {
		stream := randomTagStream(rng)
		ts, ref := NewTagSet(), mapTags{}
		for _, p := range stream {
			ts.Add(p)
			ref[p] = struct{}{}
			if rng.Intn(100) == 0 {
				checkTags(t, "mid-stream", ts, ref) // reads settle rows, and Adds resume after
			}
		}
		checkTags(t, "stream", ts, ref)

		n := rng.Intn(4)
		domain := grid.BoxFromSize(grid.IV(rng.Intn(100)-70, rng.Intn(100)-70), grid.IV(rng.Intn(90), rng.Intn(90)))
		if n > 0 {
			// A buffered set takes further Adds like any other.
			buf, refBuf := ts.Buffer(n, domain), ref.buffer(n, domain)
			checkTags(t, "Buffer", buf, refBuf)
			for _, p := range randomTagStream(rng) {
				buf.Add(p)
				refBuf[p] = struct{}{}
			}
			checkTags(t, "Buffer then Add", buf, refBuf)
		} else if ts.Buffer(n, domain) != ts {
			t.Fatalf("Buffer(%d) copied the set", n)
		}
		ratio := 1 + rng.Intn(8)
		if ratio > 1 {
			checkTags(t, "Coarsen", ts.Coarsen(ratio), ref.coarsen(ratio))
		} else if ts.Coarsen(ratio) != ts {
			t.Fatalf("Coarsen(%d) copied the set", ratio)
		}
		checkTags(t, "after derived sets", ts, ref)
	}
}

func TestMakeFineBoxArrayMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5602))
	for iter := 0; iter < 300; iter++ {
		ts, ref := NewTagSet(), mapTags{}
		for _, p := range randomTagStream(rng) {
			ts.Add(p)
			ref[p] = struct{}{}
		}
		domain := grid.BoxFromSize(grid.IV(-64, -64), grid.IV(32+rng.Intn(96), 32+rng.Intn(96)))
		ratio := []int{2, 4}[rng.Intn(2)]
		bf := []int{2, 4, 8}[rng.Intn(3)]
		buf := rng.Intn(3)
		got := MakeFineBoxArray(ts, domain, ratio, bf, 16, 0.7, buf)
		want := ref.makeFine(domain, ratio, bf, 16, 0.7, buf)
		if !slices.Equal(got.Boxes, want) {
			t.Fatalf("iter %d: boxes\n%v\nwant\n%v", iter, got.Boxes, want)
		}
	}
}

// TestTagSetAddOrder: a row filled in increasing X never needs a sort,
// and an out-of-order Add is caught by the first read.
func TestTagSetAddOrder(t *testing.T) {
	ts := NewTagSet()
	for _, x := range []int{3, 5, 5, 9} {
		ts.Add(grid.IV(x, 7))
	}
	if ts.dirty || ts.Len() != 3 {
		t.Fatalf("increasing row: dirty=%v Len=%d, want clean and 3", ts.dirty, ts.Len())
	}
	ts.Add(grid.IV(4, 7))
	ts.Add(grid.IV(3, 7))
	if !ts.dirty {
		t.Fatal("out-of-order Add left the set clean")
	}
	want := []grid.IntVect{grid.IV(3, 7), grid.IV(4, 7), grid.IV(5, 7), grid.IV(9, 7)}
	if got := ts.Points(); !slices.Equal(got, want) {
		t.Fatalf("Points = %v, want %v", got, want)
	}
}

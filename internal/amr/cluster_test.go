package amr

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"amrproxyio/internal/grid"
)

func TestTagSetBasics(t *testing.T) {
	ts := NewTagSet()
	ts.Add(grid.IV(3, 4))
	ts.Add(grid.IV(3, 4)) // duplicate
	ts.Add(grid.IV(1, 2))
	if ts.Len() != 2 {
		t.Errorf("Len = %d", ts.Len())
	}
	pts := ts.Points()
	if pts[0] != grid.IV(1, 2) || pts[1] != grid.IV(3, 4) {
		t.Errorf("Points = %v (must be sorted)", pts)
	}
}

func TestTagSetBuffer(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(9, 9))
	ts := NewTagSet()
	ts.Add(grid.IV(0, 0)) // corner: buffer clips
	b := ts.Buffer(1, dom)
	if b.Len() != 4 { // (0,0),(1,0),(0,1),(1,1)
		t.Errorf("buffered corner tags = %d", b.Len())
	}
	ts2 := NewTagSet()
	ts2.Add(grid.IV(5, 5))
	if got := ts2.Buffer(1, dom).Len(); got != 9 {
		t.Errorf("buffered interior tags = %d", got)
	}
	// Buffer(0) returns the same set.
	if ts2.Buffer(0, dom) != ts2 {
		t.Error("Buffer(0) should be a no-op")
	}
}

func TestTagSetCoarsen(t *testing.T) {
	ts := NewTagSet()
	ts.Add(grid.IV(0, 0))
	ts.Add(grid.IV(1, 1))
	ts.Add(grid.IV(2, 0))
	c := ts.Coarsen(2)
	if c.Len() != 2 { // (0,0) and (1,0)
		t.Errorf("coarsened tags = %d", c.Len())
	}
	if ts.Coarsen(1) != ts {
		t.Error("Coarsen(1) should be a no-op")
	}
}

// clusterCovers verifies the fundamental clustering contract.
func clusterCovers(t *testing.T, pts []grid.IntVect, boxes []grid.Box) {
	t.Helper()
	for _, p := range pts {
		found := false
		for _, b := range boxes {
			if b.Contains(p) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("tag %v not covered by any cluster box", p)
		}
	}
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Intersects(boxes[j]) {
				t.Fatalf("cluster boxes %v and %v overlap", boxes[i], boxes[j])
			}
		}
	}
}

func TestClusterSingleBlob(t *testing.T) {
	var pts []grid.IntVect
	for j := 10; j < 20; j++ {
		for i := 10; i < 20; i++ {
			pts = append(pts, grid.IV(i, j))
		}
	}
	boxes := Cluster(pts, 0.7)
	clusterCovers(t, pts, boxes)
	if len(boxes) != 1 {
		t.Errorf("dense blob should be one box, got %d", len(boxes))
	}
	if !boxes[0].Equal(grid.NewBox(grid.IV(10, 10), grid.IV(19, 19))) {
		t.Errorf("blob box = %v", boxes[0])
	}
}

func TestClusterTwoSeparatedBlobs(t *testing.T) {
	var pts []grid.IntVect
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			pts = append(pts, grid.IV(i, j))
			pts = append(pts, grid.IV(i+40, j+40))
		}
	}
	boxes := Cluster(pts, 0.7)
	clusterCovers(t, pts, boxes)
	if len(boxes) != 2 {
		t.Errorf("expected 2 boxes, got %d: %v", len(boxes), boxes)
	}
	// Efficiency of each accepted box must be >= eff (they are exact here).
	for _, b := range boxes {
		if b.NumPts() != 16 {
			t.Errorf("box %v should be 4x4", b)
		}
	}
}

func TestClusterEfficiencyHonored(t *testing.T) {
	// An L-shaped region: one bounding box would be 50% efficient, so
	// clustering at 0.7 must split it.
	var pts []grid.IntVect
	for j := 0; j < 16; j++ {
		for i := 0; i < 8; i++ {
			pts = append(pts, grid.IV(i, j))
		}
	}
	for j := 0; j < 8; j++ {
		for i := 8; i < 16; i++ {
			pts = append(pts, grid.IV(i, j))
		}
	}
	boxes := Cluster(pts, 0.7)
	clusterCovers(t, pts, boxes)
	total := int64(0)
	for _, b := range boxes {
		total += b.NumPts()
	}
	eff := float64(len(pts)) / float64(total)
	if eff < 0.7 {
		t.Errorf("overall efficiency = %g", eff)
	}
}

func TestClusterAnnulus(t *testing.T) {
	// A shock-front-like ring of tags (the Sedov pattern).
	var pts []grid.IntVect
	cx, cy, r := 64.0, 64.0, 40.0
	for deg := 0; deg < 3600; deg++ {
		a := float64(deg) * math.Pi / 1800
		pts = append(pts, grid.IV(int(cx+r*math.Cos(a)), int(cy+r*math.Sin(a))))
	}
	set := NewTagSet()
	for _, p := range pts {
		set.Add(p)
	}
	boxes := Cluster(set.Points(), 0.5)
	clusterCovers(t, set.Points(), boxes)
	if len(boxes) < 4 {
		t.Errorf("ring should split into several boxes, got %d", len(boxes))
	}
	var covered int64
	for _, b := range boxes {
		covered += b.NumPts()
	}
	if eff := float64(set.Len()) / float64(covered); eff < 0.4 {
		t.Errorf("ring clustering efficiency = %g", eff)
	}
}

func TestClusterEmptyAndSingle(t *testing.T) {
	if got := Cluster(nil, 0.7); got != nil {
		t.Errorf("empty cluster = %v", got)
	}
	boxes := Cluster([]grid.IntVect{grid.IV(5, 7)}, 0.7)
	if len(boxes) != 1 || !boxes[0].Equal(grid.NewBox(grid.IV(5, 7), grid.IV(5, 7))) {
		t.Errorf("single point cluster = %v", boxes)
	}
}

func TestClusterRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		set := NewTagSet()
		n := rng.Intn(300) + 1
		for k := 0; k < n; k++ {
			set.Add(grid.IV(rng.Intn(100), rng.Intn(100)))
		}
		pts := set.Points()
		boxes := Cluster(pts, 0.6)
		clusterCovers(t, pts, boxes)
	}
}

func TestMakeFineBoxArray(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(63, 63))
	tags := NewTagSet()
	for j := 20; j < 28; j++ {
		for i := 20; i < 28; i++ {
			tags.Add(grid.IV(i, j))
		}
	}
	ba := MakeFineBoxArray(tags, dom, 2, 8, 32, 0.7, 1)
	if ba.Len() == 0 {
		t.Fatal("no boxes generated")
	}
	if !ba.IsDisjoint() {
		t.Error("fine boxes overlap")
	}
	fineDom := dom.Refine(2)
	for _, b := range ba.Boxes {
		if !fineDom.ContainsBox(b) {
			t.Errorf("box %v outside fine domain", b)
		}
		if b.Lo.X%8 != 0 || b.Lo.Y%8 != 0 {
			t.Errorf("box %v lo not blocking-aligned", b)
		}
		s := b.Size()
		if s.X > 32 || s.Y > 32 {
			t.Errorf("box %v exceeds max grid size", b)
		}
	}
	// Every buffered tag, refined, must be covered.
	for _, p := range tags.Buffer(1, dom).Points() {
		fp := grid.IV(p.X*2, p.Y*2)
		if ba.Owner(fp) < 0 {
			t.Errorf("refined tag %v not covered", fp)
		}
	}
}

func TestMakeFineBoxArrayEmptyTags(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(63, 63))
	ba := MakeFineBoxArray(NewTagSet(), dom, 2, 8, 32, 0.7, 1)
	if ba.Len() != 0 {
		t.Errorf("expected empty BoxArray, got %d boxes", ba.Len())
	}
}

func TestEnforceNesting(t *testing.T) {
	parent := NewBoxArray([]grid.Box{grid.NewBox(grid.IV(0, 0), grid.IV(15, 15))})
	// Candidate fine box sticking out of the refined parent region.
	fine := NewBoxArray([]grid.Box{grid.NewBox(grid.IV(24, 24), grid.IV(39, 39))})
	nested := EnforceNesting(fine, parent, 2)
	if nested.Len() != 1 {
		t.Fatalf("nested len = %d", nested.Len())
	}
	want := grid.NewBox(grid.IV(24, 24), grid.IV(31, 31))
	if !nested.Boxes[0].Equal(want) {
		t.Errorf("nested box = %v, want %v", nested.Boxes[0], want)
	}
	// Fully outside -> dropped.
	outside := NewBoxArray([]grid.Box{grid.NewBox(grid.IV(40, 40), grid.IV(47, 47))})
	if got := EnforceNesting(outside, parent, 2); got.Len() != 0 {
		t.Errorf("outside box survived nesting: %v", got.Boxes)
	}
}

func TestTagGradient(t *testing.T) {
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(31, 31))
	ba := SingleBoxArray(dom, 16, 8)
	mf := NewMultiFab(ba, MustDistribute(ba, 1, DistRoundRobin), 2, 1)
	// Component 0 steps at i = 16, component 1 at j = 16: gradient cells
	// there should tag.
	mf.ForEachFAB(func(_ int, f *FAB) {
		for j := f.DataBox.Lo.Y; j <= f.DataBox.Hi.Y; j++ {
			for i := f.DataBox.Lo.X; i <= f.DataBox.Hi.X; i++ {
				v, w := 1.0, 1.0
				if i >= 16 {
					v = 2.0
				}
				if j >= 16 {
					w = 2.0
				}
				f.Set(i, j, 0, v)
				f.Set(i, j, 1, w)
			}
		}
	})
	tags := TagGradient(mf, []int{0}, 0.3)
	if tags.Len() == 0 {
		t.Fatal("no tags on a step discontinuity")
	}
	for _, p := range tags.Points() {
		if p.X != 15 && p.X != 16 {
			t.Errorf("unexpected tag at %v", p)
		}
	}
	// Both components tag into one set: the union of the two steps.
	both := TagGradient(mf, []int{0, 1}, 0.3)
	if want := 2*32 + 2*32 - 4; both.Len() != want {
		t.Errorf("two-component tags = %d cells, want %d", both.Len(), want)
	}
	for _, p := range both.Points() {
		if p.X != 15 && p.X != 16 && p.Y != 15 && p.Y != 16 {
			t.Errorf("unexpected two-component tag at %v", p)
		}
	}
	// Smooth field: no tags.
	mf.ForEachFAB(func(_ int, f *FAB) {
		f.FillConst(0, 1.0)
		f.FillConst(1, 1.0)
	})
	if got := TagGradient(mf, []int{0, 1}, 0.3); got.Len() != 0 {
		t.Errorf("constant field tagged %d cells", got.Len())
	}
}

// serialTagGradient is TagGradient as it stood before its FABs were
// scanned in parallel, kept as the reference the pooled scan must match.
func serialTagGradient(mf *MultiFab, comps []int, relThreshold float64) *TagSet {
	tags := NewTagSet()
	for _, f := range mf.FABs {
		for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
			for i := f.ValidBox.Lo.X; i <= f.ValidBox.Hi.X; i++ {
				for _, comp := range comps {
					if steepGradient(f, i, j, comp, relThreshold) {
						tags.Add(grid.IntVect{X: i, Y: j})
						break
					}
				}
			}
		}
	}
	return tags
}

// TestTagGradientMatchesSerial: the pooled scan tags exactly the cells
// the serial loop tags, on random multi-FAB data at several worker
// counts, for one component and for two.
func TestTagGradientMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	rng := rand.New(rand.NewSource(7))
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(95, 95))
	for iter := 0; iter < 20; iter++ {
		ba := randomTiling(rng, dom, 0.7)
		mf := NewMultiFab(ba, MustDistribute(ba, 4, DistRoundRobin), 2, 1)
		for _, f := range mf.FABs {
			for k := range f.Data {
				// Relative jumps up to ~0.5, so a threshold tags some
				// cells and not others.
				f.Data[k] = 1 + rng.Float64()/2
			}
		}
		comps := [][]int{{0}, {1, 0}}[iter%2]
		threshold := 0.2 + 0.2*rng.Float64()
		want := serialTagGradient(mf, comps, threshold).Points()
		if len(want) == 0 || len(want) == int(ba.NumPts()) {
			t.Fatalf("iter %d: %d of %d cells tagged; the data does not discriminate", iter, len(want), ba.NumPts())
		}
		for _, workers := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(workers)
			if got := TagGradient(mf, comps, threshold).Points(); !slices.Equal(got, want) {
				t.Fatalf("iter %d, %d workers: %d tags, want the serial scan's %d", iter, workers, len(got), len(want))
			}
		}
	}
}

package amr

import (
	"fmt"
	"math"

	"amrproxyio/internal/grid"
)

// FAB is a Fortran-Array-Box-style container: ncomp float64 fields over a
// valid box grown by nghost ghost cells. Data layout is component-major,
// then row-major within a component (j outer, i inner), matching the
// on-disk FAB layout the plotfile writer serializes.
type FAB struct {
	ValidBox grid.Box // the box this FAB is responsible for
	DataBox  grid.Box // ValidBox grown by NGhost
	NComp    int
	NGhost   int
	Data     []float64
	nx, ny   int
}

// NewFAB allocates a zeroed FAB.
func NewFAB(valid grid.Box, ncomp, nghost int) *FAB {
	if valid.IsEmpty() {
		panic("amr: NewFAB on empty box")
	}
	if ncomp < 1 {
		panic(fmt.Sprintf("amr: NewFAB ncomp=%d", ncomp))
	}
	db := valid.Grow(nghost)
	s := db.Size()
	return &FAB{
		ValidBox: valid,
		DataBox:  db,
		NComp:    ncomp,
		NGhost:   nghost,
		Data:     make([]float64, ncomp*s.X*s.Y),
		nx:       s.X,
		ny:       s.Y,
	}
}

// index computes the flat offset of (i, j, comp); callers must stay inside
// DataBox.
func (f *FAB) index(i, j, comp int) int {
	return comp*f.nx*f.ny + (j-f.DataBox.Lo.Y)*f.nx + (i - f.DataBox.Lo.X)
}

// Offset is the flat index of (i, j, comp) in Data; callers must stay
// inside DataBox. With Strides it lets a kernel walk a row or a column,
// ghosts included, straight through the backing array.
func (f *FAB) Offset(i, j, comp int) int { return f.index(i, j, comp) }

// Strides returns the steps through Data between vertically adjacent
// cells (dj) and between components of one cell (dcomp); horizontally
// adjacent cells are one apart.
func (f *FAB) Strides() (dj, dcomp int) { return f.nx, f.nx * f.ny }

// At returns the value at cell (i,j) of component comp.
func (f *FAB) At(i, j, comp int) float64 { return f.Data[f.index(i, j, comp)] }

// Set stores v at cell (i,j) of component comp.
func (f *FAB) Set(i, j, comp int, v float64) { f.Data[f.index(i, j, comp)] = v }

// Add accumulates v at cell (i,j) of component comp.
func (f *FAB) Add(i, j, comp int, v float64) { f.Data[f.index(i, j, comp)] += v }

// FillConst sets component comp to v over the whole data box (ghosts
// included).
func (f *FAB) FillConst(comp int, v float64) {
	base := comp * f.nx * f.ny
	for k := base; k < base+f.nx*f.ny; k++ {
		f.Data[k] = v
	}
}

// CopyFrom copies all components of src over region (which must be inside
// both data boxes).
func (f *FAB) CopyFrom(src *FAB, region grid.Box) {
	if f.NComp != src.NComp {
		panic("amr: CopyFrom component mismatch")
	}
	for c := 0; c < f.NComp; c++ {
		for j := region.Lo.Y; j <= region.Hi.Y; j++ {
			di := f.index(region.Lo.X, j, c)
			si := src.index(region.Lo.X, j, c)
			copy(f.Data[di:di+region.Size().X], src.Data[si:si+region.Size().X])
		}
	}
}

// row returns the contiguous valid-region row j of component comp as a
// slice of the backing array.
func (f *FAB) row(j, comp int) []float64 {
	lo := f.index(f.ValidBox.Lo.X, j, comp)
	return f.Data[lo : lo+f.ValidBox.Size().X]
}

// Row exposes the contiguous valid-region row j of component comp (no
// ghosts) as a slice of the backing array. Serializers iterate rows
// instead of calling At per cell; the slice must not be resized.
func (f *FAB) Row(j, comp int) []float64 { return f.row(j, comp) }

// MinMax returns the min and max of comp over the valid box. The inner
// loop ranges over contiguous row slices rather than computing a flat
// offset per element.
func (f *FAB) MinMax(comp int) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
		for _, v := range f.row(j, comp) {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
	}
	return
}

// Sum returns the sum of comp over the valid box, row-sliced like MinMax.
func (f *FAB) Sum(comp int) float64 {
	var s float64
	for j := f.ValidBox.Lo.Y; j <= f.ValidBox.Hi.Y; j++ {
		for _, v := range f.row(j, comp) {
			s += v
		}
	}
	return s
}

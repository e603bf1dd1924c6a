package grid

import "fmt"

// Geom describes the physical geometry of a level's index space: the
// problem domain in physical coordinates, the covering index box, and the
// derived mesh spacing. It mirrors amrex::Geometry for the 2D Cartesian
// case (geometry.coord_sys = 0 in the Castro inputs file).
type Geom struct {
	Domain         Box // covering index box at this level
	ProbLo, ProbHi [2]float64
	CellSize       [2]float64
}

// NewGeom builds the geometry for a domain box spanning [probLo, probHi].
func NewGeom(domain Box, probLo, probHi [2]float64) Geom {
	s := domain.Size()
	return Geom{
		Domain: domain,
		ProbLo: probLo,
		ProbHi: probHi,
		CellSize: [2]float64{
			(probHi[0] - probLo[0]) / float64(s.X),
			(probHi[1] - probLo[1]) / float64(s.Y),
		},
	}
}

// Refine returns the geometry of the level ratio times finer: same physical
// extent, refined domain box, proportionally smaller cells.
func (g Geom) Refine(ratio int) Geom {
	return NewGeom(g.Domain.Refine(ratio), g.ProbLo, g.ProbHi)
}

// CellCenter returns the physical coordinates of the center of cell (i,j).
func (g Geom) CellCenter(i, j int) (x, y float64) {
	x = g.ProbLo[0] + (float64(i-g.Domain.Lo.X)+0.5)*g.CellSize[0]
	y = g.ProbLo[1] + (float64(j-g.Domain.Lo.Y)+0.5)*g.CellSize[1]
	return
}

func (g Geom) String() string {
	return fmt.Sprintf("Geom{domain=%s dx=(%g,%g)}", g.Domain, g.CellSize[0], g.CellSize[1])
}

// Sedovblast renders the paper's Fig. 4: the AMR mesh tracking the
// expanding blast wave and the Mach-number solution, as ASCII rasters.
// The refined-level overlay shows the moving fine grids hugging the shock
// front — the geometry that drives the I/O imbalance the paper studies.
//
//	go run ./examples/sedovblast
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"strings"

	"amrproxyio/internal/grid"
	"amrproxyio/internal/hydro"
	"amrproxyio/internal/inputs"
	"amrproxyio/internal/sim"
)

func main() {
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{64, 64}
	cfg.MaxLevel = 2
	cfg.MaxStep = 200
	cfg.PlotInt = 0 // no plotfiles; we render in-process
	cfg.MaxGridSize = 32
	cfg.NProcs = 4

	s, err := sim.New(cfg, sim.DefaultOptions(), nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Sedov blast after %d steps (t = %.5g), finest level %d\n\n",
		s.Step, s.Time, s.FinestLevel())

	fmt.Println("(a) AMR mesh: '.' = L0 only, '1' = covered by L1, '2' = covered by L2")
	fmt.Println(renderGrids(s))
	fmt.Println("(b) Mach number field (0-9 scale, sampled on L0 + average-down)")
	fmt.Println(renderMach(s))
}

// renderGrids rasterizes level coverage onto the L0 index space.
func renderGrids(s *sim.Sim) string {
	n := s.Cfg.NCell[0]
	raster := make([][]byte, n)
	for j := range raster {
		raster[j] = []byte(strings.Repeat(".", n))
	}
	for l := 1; l < len(s.Levels); l++ {
		ratio := 1
		for k := 0; k < l; k++ {
			ratio *= s.Cfg.RefRatioAt(k)
		}
		mark := byte('0' + l)
		for _, b := range s.Levels[l].BA.Boxes {
			cb := b.Coarsen(ratio)
			for j := cb.Lo.Y; j <= cb.Hi.Y; j++ {
				for i := cb.Lo.X; i <= cb.Hi.X; i++ {
					if j >= 0 && j < n && i >= 0 && i < n {
						raster[j][i] = mark
					}
				}
			}
		}
	}
	return rasterToString(raster)
}

// renderMach rasterizes the Mach number from the level-0 state (which
// average-down keeps consistent with the finer levels).
func renderMach(s *sim.Sim) string {
	lev := s.Levels[0]
	n := s.Cfg.NCell[0]
	gamma := s.Opts.Blast.Gamma
	var maxMach float64
	vals := make([][]float64, n)
	for j := range vals {
		vals[j] = make([]float64, n)
		for i := range vals[j] {
			c := hydro.Cons{}
			if v, ok := lev.State.ValueAt(grid.IV(i, j), hydro.IRho); ok {
				c.Rho = v
			}
			c.Mx, _ = lev.State.ValueAt(grid.IV(i, j), hydro.IMx)
			c.My, _ = lev.State.ValueAt(grid.IV(i, j), hydro.IMy)
			c.E, _ = lev.State.ValueAt(grid.IV(i, j), hydro.IEner)
			m := hydro.Mach(hydro.ToPrim(c, gamma), gamma)
			vals[j][i] = m
			if m > maxMach {
				maxMach = m
			}
		}
	}
	raster := make([][]byte, n)
	for j := range raster {
		raster[j] = []byte(strings.Repeat(" ", n))
		for i := range raster[j] {
			if maxMach > 0 {
				level := int(math.Round(vals[j][i] / maxMach * 9))
				if level > 0 {
					raster[j][i] = byte('0' + level)
				}
			}
		}
	}
	out := rasterToString(raster)
	return out + fmt.Sprintf("peak Mach = %.3f\n", maxMach)
}

// rasterToString flips vertically (y up) and compresses to every other
// row so the aspect ratio looks right in a terminal.
func rasterToString(raster [][]byte) string {
	var sb strings.Builder
	for j := len(raster) - 1; j >= 0; j -= 2 {
		sb.Write(raster[j])
		sb.WriteByte('\n')
	}
	return sb.String()
}

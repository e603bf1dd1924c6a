package inputs

import (
	"math"
	"testing"
)

// FuzzCastroInputs hammers the path every command reads a deck through,
// Parse then FromFile: no input may panic, and every config it accepts
// must validate with finite step controls and geometry. The seeds are
// Listing 2 alone and with one hostile line appended each.
func FuzzCastroInputs(f *testing.F) {
	f.Add(listing2)
	for _, line := range []string{
		"castro.init_shrink = NaN",
		"castro.init_shrink = 2",
		"castro.change_max = -1",
		"castro.change_max = +Inf",
		"stop_time = NaN",
		"stop_time = -Inf",
		"geometry.prob_hi = NaN 1",
		"geometry.prob_lo = -Inf 0",
		"amr.grid_eff = NaN",
		"amr.n_cell = 32",
		"amr.ref_ratio =",
		"amr.blocking_factor = 0",
		"nprocs = 99999999999999999999",
	} {
		f.Add(listing2 + line + "\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := ParseString(src)
		if err != nil {
			return
		}
		c, err := FromFile(file)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("FromFile accepted an invalid config: %v", err)
		}
		for _, x := range []float64{c.StopTime, c.CFL, c.InitShrink, c.ChangeMax, c.GridEff, c.ProbLo[0], c.ProbLo[1], c.ProbHi[0], c.ProbHi[1]} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("FromFile accepted a non-finite float: %+v", c)
			}
		}
	})
}

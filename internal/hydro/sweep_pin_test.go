package hydro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
)

// Sweep-kernel pin: every float the sweeps produce — the updated state,
// ghosts included, and every captured face flux — is hashed bit for bit
// against digests recorded before the per-row kernels became one
// allocation-free kernel. A change to the sweep's arithmetic, to its
// operand order, or to how it addresses the FAB moves a digest.

// pinDomain is deliberately off the origin and non-square, so a swapped
// stride or a dropped box offset cannot cancel out.
var pinDomain = grid.NewBox(grid.IV(8, 4), grid.IV(55, 43))

func hashFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// hashFluxes hashes a captured field face by face through its accessors,
// so the digest does not depend on how the field stores its faces.
func hashFluxes(h hash.Hash, ff *FluxField) {
	vb := ff.Valid
	put := func(c Cons) {
		hashFloat(h, c.Rho)
		hashFloat(h, c.Mx)
		hashFloat(h, c.My)
		hashFloat(h, c.E)
	}
	if ff.Dir == 0 {
		for j := vb.Lo.Y; j <= vb.Hi.Y; j++ {
			for fx := vb.Lo.X; fx <= vb.Hi.X+1; fx++ {
				put(ff.AtX(fx, j))
			}
		}
		return
	}
	for i := vb.Lo.X; i <= vb.Hi.X; i++ {
		for fy := vb.Lo.Y; fy <= vb.Hi.Y+1; fy++ {
			put(ff.AtY(i, fy))
		}
	}
}

// fillPrim sets every data cell (ghosts included) from a primitive field.
func fillPrim(f *amr.FAB, w func(i, j int) Prim) {
	for j := f.DataBox.Lo.Y; j <= f.DataBox.Hi.Y; j++ {
		for i := f.DataBox.Lo.X; i <= f.DataBox.Hi.X; i++ {
			c := ToCons(w(i, j), gamma)
			f.Set(i, j, IRho, c.Rho)
			f.Set(i, j, IMx, c.Mx)
			f.Set(i, j, IMy, c.My)
			f.Set(i, j, IEner, c.E)
		}
	}
}

var sweepPins = []struct {
	name string
	dt   float64
	init func(mf *amr.MultiFab, geom grid.Geom)
	want string
}{
	{"sedov", 2e-4, func(mf *amr.MultiFab, geom grid.Geom) {
		SedovIC(mf, geom, gamma, 1, 1e-5, 1, 0.08, [2]float64{0.45, 0.55})
	}, "d83ed0a68c5a18bd29d4ca7bdcb3ad26b333f18c5ca43c701a8b93732c5f49c6"},
	// Two flows leaving a diagonal stripe of gas below the density and
	// pressure floors: every floor in the kernel engages.
	{"vacuum", 2e-4, func(mf *amr.MultiFab, _ grid.Geom) {
		fillPrim(mf.FABs[0], func(i, j int) Prim {
			switch {
			case i+j < 50:
				return Prim{Rho: 1, U: -20, V: -15, P: 0.4}
			case i+j < 66:
				return Prim{Rho: 1e-13, P: 1e-16}
			}
			return Prim{Rho: 1, U: 20, V: 15, P: 0.4}
		})
	}, "2fcfcd8d2f1e77d50e539c11f56448057f99e8eb519f96b8b10f64634595af99"},
	// Seeded random states: every HLLC branch, both signs of every slope.
	{"random", 5e-4, func(mf *amr.MultiFab, _ grid.Geom) {
		rng := rand.New(rand.NewSource(7))
		fillPrim(mf.FABs[0], func(int, int) Prim {
			return Prim{
				Rho: 0.05 + 2*rng.Float64(),
				U:   4 * (rng.Float64() - 0.5),
				V:   4 * (rng.Float64() - 0.5),
				P:   0.01 + 3*rng.Float64(),
			}
		})
	}, "472ee50fd199dbd5b33bacf902699325fd888be823ecb4f85ad3a8e544850911"},
}

// pinLevel is a one-FAB level on pinDomain, with square cells and the two
// ghosts the sweep needs, initialized by init.
func pinLevel(init func(*amr.MultiFab, grid.Geom)) (*amr.MultiFab, grid.Geom) {
	geom := grid.NewGeom(pinDomain, [2]float64{0, 0}, [2]float64{1, 40.0 / 48})
	ba := amr.NewBoxArray([]grid.Box{pinDomain})
	mf := amr.NewMultiFab(ba, amr.DistributionMapping{Owner: []int{0}}, NCons, 2)
	init(mf, geom)
	return mf, geom
}

func TestSweepKernelPinned(t *testing.T) {
	for _, pc := range sweepPins {
		t.Run(pc.name, func(t *testing.T) {
			mf, geom := pinLevel(pc.init)
			f := mf.FABs[0]
			h := sha256.New()
			for step := 0; step < 6; step++ {
				for dir := 0; dir < 2; dir++ {
					amr.FillPatch(mf, nil, pinDomain, 1, amr.InterpPiecewiseConstant)
					// Alternate plain and capturing sweeps: both must stay
					// on the pinned trajectory.
					if step%2 == 0 {
						hashFluxes(h, new(Workspace).Sweep(f, dir, pc.dt, geom.CellSize[dir], gamma, true))
					} else if dir == 0 {
						SweepX(f, pc.dt, geom.CellSize[0], gamma)
					} else {
						SweepY(f, pc.dt, geom.CellSize[1], gamma)
					}
					for _, v := range f.Data {
						hashFloat(h, v)
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pc.want {
				t.Errorf("digest %s, want %s", got, pc.want)
			}
		})
	}
}

// TestSweepAllocationFree gates the kernel's reuse: once a Workspace has
// swept a box, further sweeps of that box, capturing or not, in either
// direction, allocate nothing.
func TestSweepAllocationFree(t *testing.T) {
	mf, geom := pinLevel(sweepPins[0].init)
	f := mf.FABs[0]
	var ws Workspace
	sweep := func() {
		for _, capture := range []bool{true, false} {
			ws.Sweep(f, 0, 1e-5, geom.CellSize[0], gamma, capture)
			ws.Sweep(f, 1, 1e-5, geom.CellSize[1], gamma, capture)
		}
	}
	sweep()
	if a := testing.AllocsPerRun(10, sweep); a != 0 {
		t.Errorf("warm sweeps allocate %v times, want 0", a)
	}
}

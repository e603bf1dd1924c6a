package plotfile

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/iosim"
)

// randomMetaSpecs returns plot and checkpoint specs that stress every
// rendered-length term: negative box corners, owners past %05d's width
// (rank >= 100000), ten or more components, one to four levels, and
// times of 0, negative, subnormal and 1e300 beside ordinary ones, and
// now and then an owner outside [0, nprocs).
func randomMetaSpecs(rng *rand.Rand, n int) ([]Spec, []CheckpointSpec) {
	times := []float64{0, -1.5, 5e-324, 1e300, -2.2250738585072014e-308}
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return times[rng.Intn(len(times))]
		}
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
	}
	coord := func() int { return rng.Intn(4000) - 2000 }
	box := func() grid.Box {
		lo := grid.IV(coord(), coord())
		return grid.NewBox(lo, grid.IV(lo.X+rng.Intn(300), lo.Y+rng.Intn(300)))
	}
	var plots []Spec
	var chks []CheckpointSpec
	for i := 0; i < n; i++ {
		nprocs := 1 + rng.Intn(8)
		if rng.Intn(3) == 0 {
			nprocs = 100000 + rng.Intn(50000)
		}
		ncomp := 1 + rng.Intn(14)
		vars := make([]string, ncomp)
		for c := range vars {
			vars[c] = string(rune('a'+rng.Intn(26))) + "var"[:rng.Intn(4)]
		}
		levels := make([]LevelSpec, 1+rng.Intn(4))
		for l := range levels {
			boxes := make([]grid.Box, rng.Intn(40))
			owners := make([]int, len(boxes))
			for b := range boxes {
				boxes[b], owners[b] = box(), rng.Intn(nprocs)
				if rng.Intn(50) == 0 {
					owners[b] = []int{-1, nprocs}[rng.Intn(2)] // no rank of the dump
				}
			}
			levels[l] = LevelSpec{
				Geom: grid.Geom{
					Domain:   box(),
					ProbLo:   [2]float64{float(), float()},
					ProbHi:   [2]float64{float(), float()},
					CellSize: [2]float64{float(), float()},
				},
				BA:       amr.NewBoxArray(boxes),
				DM:       amr.DistributionMapping{Owner: owners},
				RefRatio: 1 + rng.Intn(16),
			}
		}
		step := rng.Intn(1000000) - 1000
		plots = append(plots, Spec{
			Root: "plt", VarNames: vars, Time: float(), Step: step, Levels: levels, NProcs: nprocs,
		})
		chks = append(chks, CheckpointSpec{
			Root: "chk", Time: float(), Step: step, LastDt: float(), NComp: ncomp, Levels: levels, NProcs: nprocs,
		})
	}
	return plots, chks
}

// TestModelOnlyMetaSizeMatchesEncode: the length a model-only
// filesystem prices each metadata file at is the length its encoder
// would have written.
func TestModelOnlyMetaSizeMatchesEncode(t *testing.T) {
	plots, chks := randomMetaSpecs(rand.New(rand.NewSource(57)), 400)
	for i, spec := range plots {
		if got, want := headerLen(spec), len(EncodeHeader(spec)); got != want {
			t.Fatalf("spec %d: headerLen = %d, len(EncodeHeader) = %d", i, got, want)
		}
		if got, want := jobInfoLen(spec), len(encodeJobInfo(spec)); got != want {
			t.Fatalf("spec %d: jobInfoLen = %d, len(encodeJobInfo) = %d", i, got, want)
		}
		offsets := make([]int64, spec.NProcs)
		for l := range spec.Levels {
			got := cellHLen(spec, l, offsets)
			if want := len(EncodeCellH(spec, l)); got != want {
				t.Fatalf("spec %d level %d: cellHLen = %d, len(EncodeCellH) = %d", i, l, got, want)
			}
		}
		if got, want := checkpointHeaderLen(chks[i]), len(encodeCheckpointHeader(chks[i])); got != want {
			t.Fatalf("spec %d: checkpointHeaderLen = %d, len(encodeCheckpointHeader) = %d", i, got, want)
		}
	}
}

// TestModelOnlyPlotMetaAllocations is the allocation gate for rank 0's
// metadata on a model-only filesystem: a few allocations per level (its
// paths) and per dump, none per box — nothing is encoded.
func TestModelOnlyPlotMetaAllocations(t *testing.T) {
	spec := wideSizeOnlySpec()
	cfg := iosim.DefaultConfig()
	cfg.RetainLedger = iosim.RetainNone
	fs := iosim.New(cfg, "")
	burst := func() {
		fs.BeginBurst(spec.NProcs)
		if _, err := writePlotMeta(fs, spec); err != nil {
			t.Fatal(err)
		}
		fs.EndBurst()
	}
	burst() // grows the shard table and rank 0's record slice once
	allocs := testing.AllocsPerRun(10, burst)
	boxes := 0
	for _, lev := range spec.Levels {
		boxes += lev.BA.Len()
	}
	limit := float64(4 + 3*len(spec.Levels))
	t.Logf("%.0f allocations for %d levels, %d boxes", allocs, len(spec.Levels), boxes)
	if allocs > limit {
		t.Errorf("model-only plot metadata makes %.0f allocations, want <= %.0f (O(levels), not O(boxes))", allocs, limit)
	}
}

// TestIntLenMatchesItoa: intLen is the rendered length at every digit
// count and sign.
func TestIntLenMatchesItoa(t *testing.T) {
	for v := int64(1); v > 0 && v < math.MaxInt64/10; v *= 10 {
		for _, x := range []int64{v - 1, v, v + 1, 3 * v, -v, -v + 1, -9 * v} {
			if got, want := intLen(x), len(strconv.FormatInt(x, 10)); got != want {
				t.Errorf("intLen(%d) = %d, want %d", x, got, want)
			}
		}
	}
}

package macsio

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// readBack parses a printed command line the way core.ReplayRun does.
func readBack(line string) (Config, error) {
	return ParseArgs(strings.Fields(strings.TrimPrefix(line, "macsio ")))
}

// printedForm is c as CommandLine states it: dataset_growth at six
// decimals (in full when those round to 0), a MIF count of 0 as nprocs,
// no SIF count and no --size_only.
func printedForm(c Config) Config {
	if g, _ := strconv.ParseFloat(strconv.FormatFloat(c.DatasetGrowth, 'f', 6, 64), 64); g > 0 {
		c.DatasetGrowth = g
	}
	switch {
	case c.FileMode == ModeSIF:
		c.MIFFiles = 0
	case c.MIFFiles == 0:
		c.MIFFiles = c.NProcs
	}
	c.SizeOnly = false
	return c
}

// randomConfig draws a valid config, with magnitudes from tiny to huge
// for every float.
func randomConfig(rng *rand.Rand) Config {
	positive := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 1 + (rng.Float64()-0.5)/10 // the paper's growth range
		case 1:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		default:
			return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
		}
	}
	ifaces := []Interface{IfaceMiftmpl, IfaceJSON, IfaceHDF5, IfaceSilo}
	c := Config{
		Interface:     ifaces[rng.Intn(len(ifaces))],
		FileMode:      []FileMode{ModeMIF, ModeSIF}[rng.Intn(2)],
		NumDumps:      1 + rng.Intn(200),
		PartSize:      8 + rng.Int63n(1<<40),
		AvgNumParts:   positive(),
		VarsPerPart:   1 + rng.Intn(20),
		DatasetGrowth: positive(),
		NProcs:        1 + rng.Intn(200000),
		SizeOnly:      rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		c.MIFFiles = rng.Intn(2 * c.NProcs)
	}
	if rng.Intn(2) == 0 {
		c.ComputeTime = positive()
	}
	if rng.Intn(2) == 0 {
		c.MetaSize = rng.Int63n(1 << 30)
	}
	return c
}

// TestCommandLineRoundTrips: for random valid configs, the printed
// command line parses back to the config it printed, and printing that
// again gives the same line.
func TestCommandLineRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for i := 0; i < 2000; i++ {
		c := randomConfig(rng)
		if err := c.Validate(); err != nil {
			t.Fatalf("generator drew an invalid config %+v: %v", c, err)
		}
		line := c.CommandLine()
		back, err := readBack(line)
		if err != nil {
			t.Fatalf("%q does not parse back: %v", line, err)
		}
		if want := printedForm(c); !reflect.DeepEqual(back, want) {
			t.Fatalf("%q parses back to\n%+v\nwant\n%+v", line, back, want)
		}
		if again := back.CommandLine(); again != line {
			t.Fatalf("reprinted %q as %q", line, again)
		}
	}
}

// FuzzParseArgs: no command line panics the parser, and every one it
// accepts is a valid config that round-trips through CommandLine.
func FuzzParseArgs(f *testing.F) {
	f.Add("--interface miftmpl --parallel_file_mode MIF 32 --num_dumps 21 --part_size 1550000 " +
		"--avg_num_parts 1 --vars_per_part 1 --dataset_growth 1.013075 --nprocs 32")
	f.Add("--interface json --parallel_file_mode SIF 4 --part_size 1M --compute_time 0.5 --nprocs 8")
	f.Add("--interface hdf5 --parallel_file_mode mif --meta_size 2K --size_only")
	f.Add("--dataset_growth 1e-9 --avg_num_parts 5e-324")
	f.Add("--part_size 9223372036854775807G")
	f.Add("--dataset_growth NaN")
	f.Add("--parallel_file_mode MIF 0")
	f.Add("--num_dumps")
	f.Fuzz(func(t *testing.T, line string) {
		c, err := ParseArgs(strings.Fields(line))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseArgs(%q) accepted an invalid config: %v", line, err)
		}
		printed := c.CommandLine()
		back, err := readBack(printed)
		if err != nil {
			t.Fatalf("ParseArgs(%q) accepted a config whose line %q does not parse: %v", line, printed, err)
		}
		if want := printedForm(c); !reflect.DeepEqual(back, want) {
			t.Fatalf("%q parses back to\n%+v\nwant\n%+v", printed, back, want)
		}
	})
}

// TestRootMetaLenMatchesEncode: the size the root metadata file is
// priced at is the length its encoder writes, at every step width. One
// config in twenty keeps randomConfig's rank count of up to 200000; the
// rest wrap it below 1000 to keep the test quick.
func TestRootMetaLenMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	widths := []int{0, 9, 99, 999, 1000, 123456}
	for i := 0; i < 200; i++ {
		c := randomConfig(rng)
		if i%20 != 0 {
			c.NProcs = 1 + c.NProcs%1000
		}
		for _, step := range []int{rng.Intn(c.NumDumps), widths[i%len(widths)]} {
			if got, want := rootMetaLen(c, step), int64(len(EncodeRootMeta(c, step))); got != want {
				t.Fatalf("config %+v step %d: rootMetaLen = %d, len(EncodeRootMeta) = %d", c, step, got, want)
			}
		}
	}
}

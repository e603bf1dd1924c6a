package macsio

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseArgs parses a MACSio-style command line (the flags in the paper's
// Table II / Listing 1) into a Config. The accepted grammar is:
//
//	--interface <miftmpl|json|hdf5|silo>
//	--parallel_file_mode <MIF|SIF> [nfiles]
//	--num_dumps <n>
//	--part_size <bytes>            (suffixes K, M, G accepted)
//	--avg_num_parts <float>
//	--vars_per_part <n>
//	--compute_time <seconds>
//	--meta_size <bytes>
//	--dataset_growth <factor>
//	--nprocs <n>                   (stands in for "jsrun -n")
//	--size_only                    (extension: model sizes without data)
func ParseArgs(args []string) (Config, error) {
	cfg := DefaultConfig()
	i := 0
	next := func(flag string) (string, error) {
		i++
		if i >= len(args) {
			return "", fmt.Errorf("macsio: flag %s needs a value", flag)
		}
		return args[i], nil
	}
	for ; i < len(args); i++ {
		switch args[i] {
		case "--interface":
			v, err := next("--interface")
			if err != nil {
				return cfg, err
			}
			cfg.Interface = Interface(v)
		case "--parallel_file_mode":
			v, err := next("--parallel_file_mode")
			if err != nil {
				return cfg, err
			}
			cfg.FileMode = FileMode(strings.ToUpper(v))
			// Optional numeric file-count operand.
			if i+1 < len(args) && !strings.HasPrefix(args[i+1], "--") {
				n, err := strconv.Atoi(args[i+1])
				if err != nil {
					return cfg, fmt.Errorf("macsio: parallel_file_mode count: %w", err)
				}
				// 0 is Config's "one file per task", not a count.
				if n < 1 {
					return cfg, fmt.Errorf("macsio: parallel_file_mode count = %d (need >= 1)", n)
				}
				cfg.MIFFiles = n
				i++
			}
		case "--num_dumps":
			v, err := next("--num_dumps")
			if err != nil {
				return cfg, err
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return cfg, fmt.Errorf("macsio: num_dumps: %w", err)
			}
			cfg.NumDumps = n
		case "--part_size":
			v, err := next("--part_size")
			if err != nil {
				return cfg, err
			}
			n, err := parseBytes(v)
			if err != nil {
				return cfg, fmt.Errorf("macsio: part_size: %w", err)
			}
			cfg.PartSize = n
		case "--avg_num_parts":
			v, err := next("--avg_num_parts")
			if err != nil {
				return cfg, err
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return cfg, fmt.Errorf("macsio: avg_num_parts: %w", err)
			}
			cfg.AvgNumParts = f
		case "--vars_per_part":
			v, err := next("--vars_per_part")
			if err != nil {
				return cfg, err
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return cfg, fmt.Errorf("macsio: vars_per_part: %w", err)
			}
			cfg.VarsPerPart = n
		case "--compute_time":
			v, err := next("--compute_time")
			if err != nil {
				return cfg, err
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return cfg, fmt.Errorf("macsio: compute_time: %w", err)
			}
			cfg.ComputeTime = f
		case "--meta_size":
			v, err := next("--meta_size")
			if err != nil {
				return cfg, err
			}
			n, err := parseBytes(v)
			if err != nil {
				return cfg, fmt.Errorf("macsio: meta_size: %w", err)
			}
			cfg.MetaSize = n
		case "--dataset_growth":
			v, err := next("--dataset_growth")
			if err != nil {
				return cfg, err
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return cfg, fmt.Errorf("macsio: dataset_growth: %w", err)
			}
			cfg.DatasetGrowth = f
		case "--nprocs":
			v, err := next("--nprocs")
			if err != nil {
				return cfg, err
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return cfg, fmt.Errorf("macsio: nprocs: %w", err)
			}
			cfg.NProcs = n
		case "--size_only":
			cfg.SizeOnly = true
		default:
			return cfg, fmt.Errorf("macsio: unknown flag %q", args[i])
		}
	}
	return cfg, cfg.Validate()
}

// parseBytes accepts plain integers plus K/M/G suffixes (powers of 1024).
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(upper, "K"):
		mult, s = 1024, s[:len(s)-1]
	case strings.HasSuffix(upper, "M"):
		mult, s = 1024*1024, s[:len(s)-1]
	case strings.HasSuffix(upper, "G"):
		mult, s = 1024*1024*1024, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt64/mult || n < math.MinInt64/mult {
		return 0, fmt.Errorf("%s times %d overflows int64", s, mult)
	}
	return n * mult, nil
}

// CommandLine renders the config back into the Listing-1 flag form, for
// the model's "emit the MACSio invocation" feature. ParseArgs reads the
// line back to the same config, up to dataset_growth's six printed
// decimals, with these readings of what the line leaves out: a MIF
// count of 0 prints as nprocs (one file per task either way), a SIF
// config prints no count (SIF writes one file), and --size_only is not
// printed (a model-only filesystem implies it). A growth that six
// decimals would round to an invalid 0 prints in full instead.
func (c Config) CommandLine() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "macsio --interface %s --parallel_file_mode %s", c.Interface, c.FileMode)
	if c.FileMode == ModeMIF {
		n := c.MIFFiles
		if n == 0 {
			n = c.NProcs
		}
		fmt.Fprintf(&sb, " %d", n)
	}
	fmt.Fprintf(&sb, " --num_dumps %d --part_size %d --avg_num_parts %g --vars_per_part %d",
		c.NumDumps, c.PartSize, c.AvgNumParts, c.VarsPerPart)
	if c.ComputeTime > 0 {
		fmt.Fprintf(&sb, " --compute_time %g", c.ComputeTime)
	}
	if c.MetaSize > 0 {
		fmt.Fprintf(&sb, " --meta_size %d", c.MetaSize)
	}
	growth := strconv.FormatFloat(c.DatasetGrowth, 'f', 6, 64)
	if v, _ := strconv.ParseFloat(growth, 64); !(v > 0) && c.DatasetGrowth > 0 {
		growth = strconv.FormatFloat(c.DatasetGrowth, 'g', -1, 64)
	}
	fmt.Fprintf(&sb, " --dataset_growth %s --nprocs %d", growth, c.NProcs)
	return sb.String()
}

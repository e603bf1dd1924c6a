// Package macsio is a Go port of the subset of LLNL's MACSio proxy I/O
// application that the paper drives (its Table II): the miftmpl (JSON)
// interface plus simulated hdf5/silo binary interfaces, MIF and SIF
// parallel file modes, and the num_dumps / part_size / avg_num_parts /
// vars_per_part / compute_time / meta_size / dataset_growth parameters.
//
// A run produces the paper's Fig. 3 layout: one data file per task per
// dump step named macsio_<iface>_<task>_<step> plus a root metadata file
// per step, written through the iosim filesystem model. Each dump is one
// burst priced rank by rank on the caller's goroutine, the same sequence
// the plotfile writer uses, so contention and burst behavior are modeled
// the same way as the AMReX side and the proxy-vs-application comparison
// isolates the bytes.
package macsio

import (
	"fmt"
	"math"
	"strconv"

	"amrproxyio/internal/iosim"
	"amrproxyio/internal/resilience"
)

// Interface selects the output encoder.
type Interface string

// Supported interfaces. Miftmpl emits real JSON text (the paper's choice);
// the others emit binary payloads approximating HDF5/silo overheads.
const (
	IfaceMiftmpl Interface = "miftmpl"
	IfaceJSON    Interface = "json" // alias the paper uses for miftmpl
	IfaceHDF5    Interface = "hdf5"
	IfaceSilo    Interface = "silo"
)

// FileMode selects the parallel file strategy.
type FileMode string

// MIF writes one file per group of tasks (N groups); SIF writes a single
// shared file with rank-ordered segments.
const (
	ModeMIF FileMode = "MIF"
	ModeSIF FileMode = "SIF"
)

// Config mirrors the MACSio command line (Table II).
type Config struct {
	Interface     Interface
	FileMode      FileMode
	MIFFiles      int     // the N in "MIF N"; 0 means one file per task
	NumDumps      int     // --num_dumps
	PartSize      int64   // --part_size: nominal bytes per part
	AvgNumParts   float64 // --avg_num_parts
	VarsPerPart   int     // --vars_per_part
	ComputeTime   float64 // --compute_time: seconds between dumps
	MetaSize      int64   // --meta_size: extra metadata bytes per task
	DatasetGrowth float64 // --dataset_growth: per-dump multiplier
	NProcs        int     // jsrun -n
	SizeOnly      bool    // model sizes without materializing payloads
}

// DefaultConfig mirrors MACSio's defaults for the parameters the paper
// leaves unset.
func DefaultConfig() Config {
	return Config{
		Interface:     IfaceMiftmpl,
		FileMode:      ModeMIF,
		NumDumps:      10,
		PartSize:      80000,
		AvgNumParts:   1,
		VarsPerPart:   1,
		ComputeTime:   0,
		MetaSize:      0,
		DatasetGrowth: 1.0,
		NProcs:        1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Interface {
	case IfaceMiftmpl, IfaceJSON, IfaceHDF5, IfaceSilo:
	default:
		return fmt.Errorf("macsio: unknown interface %q", c.Interface)
	}
	switch c.FileMode {
	case ModeMIF, ModeSIF:
	default:
		return fmt.Errorf("macsio: unknown parallel_file_mode %q", c.FileMode)
	}
	if c.NumDumps < 1 {
		return fmt.Errorf("macsio: num_dumps = %d", c.NumDumps)
	}
	if c.PartSize < 8 {
		return fmt.Errorf("macsio: part_size = %d (need >= 8)", c.PartSize)
	}
	if c.AvgNumParts <= 0 {
		return fmt.Errorf("macsio: avg_num_parts = %g", c.AvgNumParts)
	}
	if c.VarsPerPart < 1 {
		return fmt.Errorf("macsio: vars_per_part = %d", c.VarsPerPart)
	}
	if c.DatasetGrowth <= 0 {
		return fmt.Errorf("macsio: dataset_growth = %g", c.DatasetGrowth)
	}
	if c.NProcs < 1 {
		return fmt.Errorf("macsio: nprocs = %d", c.NProcs)
	}
	if c.ComputeTime < 0 || c.MetaSize < 0 {
		return fmt.Errorf("macsio: negative compute_time or meta_size")
	}
	return nil
}

// partsForRank distributes round(avg_num_parts * nprocs) parts across
// ranks as evenly as possible, extras to the lowest ranks (MACSio's
// deterministic assignment).
func (c Config) partsForRank(rank int) int {
	total := int(math.Round(c.AvgNumParts * float64(c.NProcs)))
	if total < 1 {
		total = 1
	}
	base := total / c.NProcs
	if rank < total%c.NProcs {
		return base + 1
	}
	return base
}

// GrowthFactor returns dataset_growth^step.
func (c Config) GrowthFactor(step int) float64 {
	return math.Pow(c.DatasetGrowth, float64(step))
}

// NominalBytes is the nominal (requested) payload for one rank at a dump
// step: parts x vars x part_size x growth^step.
func (c Config) NominalBytes(rank, step int) int64 {
	perPart := float64(c.PartSize) * c.GrowthFactor(step)
	return int64(perPart) * int64(c.partsForRank(rank)) * int64(c.VarsPerPart)
}

// DumpRecord reports the actual bytes one rank wrote at one dump step.
type DumpRecord struct {
	Step  int   `json:"step"`
	Rank  int   `json:"rank"`
	Bytes int64 `json:"bytes"`
}

// Run executes the proxy: NumDumps bulk-synchronous dumps through fs.
func Run(fs *iosim.FileSystem, cfg Config) ([]DumpRecord, error) {
	return RunMitigated(fs, cfg, nil)
}

// RunMitigated is Run with a closed-loop resilience engine observing
// between dumps. MACSio's dumps are checkpoints — never shed — and the
// dump count is fixed by the command line, so the only policy with a
// seam here is target quarantine. Each dump advances every rank's clock
// by compute_time, lets eng (if any) observe the fault-event stream and
// install its breaker set, then writes one burst: ranks 0..NProcs-1 in
// turn, rank 0's root metadata right after its own data file. Records
// come out in (step, rank) order.
func RunMitigated(fs *iosim.FileSystem, cfg Config, eng *resilience.Engine) ([]DumpRecord, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]DumpRecord, 0, cfg.NumDumps*cfg.NProcs)
	for step := 0; step < cfg.NumDumps; step++ {
		if cfg.ComputeTime > 0 {
			for rank := 0; rank < cfg.NProcs; rank++ {
				fs.AdvanceClock(rank, cfg.ComputeTime)
			}
		}
		if eng != nil {
			eng.Observe(fs)
		}
		var err error
		if out, err = writeDump(fs, cfg, step, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeDump writes one dump step as a single burst and appends each
// rank's record to out.
func writeDump(fs *iosim.FileSystem, cfg Config, step int, out []DumpRecord) ([]DumpRecord, error) {
	fs.BeginBurst(cfg.NProcs)
	defer fs.EndBurst()
	for rank := 0; rank < cfg.NProcs; rank++ {
		nbytes, err := writeRankDump(fs, cfg, rank, step)
		if err != nil {
			return nil, err
		}
		if rank == 0 { // the per-step root metadata file
			if _, err := fs.Write(0, rootPath(cfg, step), EncodeRootMeta(cfg, step), iosim.Labels{Step: step}); err != nil {
				return nil, err
			}
		}
		out = append(out, DumpRecord{Step: step, Rank: rank, Bytes: nbytes})
	}
	return out, nil
}

// writeRankDump writes one rank's data file for one step and returns the
// file bytes attributed to this rank.
func writeRankDump(fs *iosim.FileSystem, cfg Config, rank, step int) (int64, error) {
	path := dataPath(cfg, rank, step)
	labels := iosim.Labels{Step: step, Level: 0}
	nvals := int(cfg.NominalBytes(rank, step) / 8)
	if nvals < 1 {
		nvals = 1
	}
	size := DataFileSize(cfg.Interface, nvals, cfg.VarsPerPart, cfg.MetaSize)
	if cfg.SizeOnly {
		if _, err := fs.WriteSize(rank, path, size, labels); err != nil {
			return 0, err
		}
		return size, nil
	}
	data := EncodeDataFile(cfg.Interface, rank, step, nvals, cfg.VarsPerPart, cfg.MetaSize)
	if int64(len(data)) != size {
		return 0, fmt.Errorf("macsio: encoder/size mismatch: %d vs %d", len(data), size)
	}
	if _, err := fs.Write(rank, path, data, labels); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// dataPath names a rank's data file following the paper's Fig. 3:
// macsio_json_{taskID}_{stepID}.json (MIF) or a single shared file (SIF).
func dataPath(cfg Config, rank, step int) string {
	var buf [48]byte // fits every interface: one allocation, the string
	b := append(buf[:0], "macsio_"...)
	b = append(append(b, ifaceToken(cfg.Interface)...), '_')
	if cfg.FileMode != ModeSIF {
		group := rank
		if cfg.MIFFiles > 0 && cfg.MIFFiles < cfg.NProcs {
			group = rank % cfg.MIFFiles
		}
		b = append(appendZeroPadded(b, group, 5), '_')
	}
	b = append(appendZeroPadded(b, step, 3), '.')
	return string(append(b, ifaceExt(cfg.Interface)...))
}

func rootPath(cfg Config, step int) string {
	return fmt.Sprintf("macsio_%s_root_%03d.%s", ifaceToken(cfg.Interface), step, ifaceExt(cfg.Interface))
}

// appendZeroPadded appends v >= 0 zero-padded to width digits, matching
// fmt's %0<width>d.
func appendZeroPadded(dst []byte, v, width int) []byte {
	for n := decimalLen(v); n < width; n++ {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// decimalLen returns the number of decimal digits of v >= 0.
func decimalLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

func ifaceToken(i Interface) string {
	if i == IfaceJSON {
		return "json"
	}
	if i == IfaceMiftmpl {
		return "json" // miftmpl writes json, and the paper names files that way
	}
	return string(i)
}

func ifaceExt(i Interface) string {
	switch i {
	case IfaceMiftmpl, IfaceJSON:
		return "json"
	case IfaceHDF5:
		return "h5"
	case IfaceSilo:
		return "silo"
	}
	return "dat"
}

// TotalBytes sums a record set.
func TotalBytes(recs []DumpRecord) int64 {
	var n int64
	for _, r := range recs {
		n += r.Bytes
	}
	return n
}

// BytesPerStep aggregates records by dump step.
func BytesPerStep(recs []DumpRecord) map[int]int64 {
	out := map[int]int64{}
	for _, r := range recs {
		out[r.Step] += r.Bytes
	}
	return out
}

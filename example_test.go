package amrproxyio_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
	"amrproxyio/internal/report"
	"amrproxyio/internal/sim"
)

// Example is the quickstart: run a small Sedov AMR simulation, write
// plotfiles to a temporary directory on real disk, read one back, and
// print the per-(step, level, task) output ledger — the paper's Eq. (2)
// hierarchy — plus the Darshan-style I/O characterization of the run,
// first on GPFS and then on the tiered burst-buffer stack.
func Example() {
	// 1. Configure a Castro-like run: Listing 2 defaults, shrunk.
	cfg := inputs.DefaultCastroInputs()
	cfg.NCell = [2]int{64, 64}
	cfg.MaxLevel = 2
	cfg.MaxStep = 60
	cfg.PlotInt = 20
	cfg.NProcs = 4
	cfg.MaxGridSize = 32

	// 2. Point the filesystem model at a real directory so the plotfiles
	//    are inspectable.
	dir, err := os.MkdirTemp("", "amrproxyio-quickstart-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	fsCfg := iosim.DefaultConfig()
	fsCfg.Backend = iosim.RealDisk
	fs := iosim.New(fsCfg, dir)
	fold := iosim.NewCharacterizeFold() // reduces the write stream as it is produced
	fs.Attach(fold)

	// 3. Run.
	s, err := sim.New(cfg, sim.DefaultOptions(), fs)
	if err != nil {
		panic(err)
	}
	if err := s.Run(context.Background()); err != nil {
		panic(err)
	}
	fs.FlushConsumers()
	fmt.Printf("ran %d steps to t=%.4g, wrote %d plotfiles\n", s.Step, s.Time, s.NPlots())

	// 4. The ledger: bytes per (step, level, rank).
	fmt.Println("\noutput ledger (Eq. 2 hierarchy):")
	for _, r := range s.Records() {
		fmt.Printf("  step %3d  level %d  task %d  %s\n",
			r.Step, r.Level, r.Rank, report.HumanBytes(r.Bytes))
	}

	// 5. Read a plotfile back to prove the on-disk format round-trips.
	root := fmt.Sprintf("%s%05d", cfg.PlotFile, 0)
	meta, err := plotfile.ReadHeader(filepath.Join(dir, root))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nre-read %s: version %q, %d variables, finest level %d, t=%g\n",
		root, meta.Version, len(meta.VarNames), meta.FinestLevel, meta.Time)
	level0, err := plotfile.ReadLevelData(filepath.Join(dir, root), 0, len(meta.VarNames))
	if err != nil {
		panic(err)
	}
	fmt.Printf("level 0 has %d boxes; first box %v holds %d values\n",
		len(level0.Boxes), level0.Boxes[0], len(level0.Data[0]))

	// 6. The Darshan-style profile of everything the run wrote: operation
	//    counts, size percentiles, burst cadence, read off the fold
	//    attached in step 2. It also counts the plotfile directory
	//    creations (metadata ops).
	fmt.Println()
	fmt.Print(fold.Profile().Render())

	// 7. The same run against the tiered burst-buffer stack (the
	//    -storage sweep the campaign CLI exposes): a small DataWarp-style
	//    per-job allocation fills mid-burst and stalls to the drain rate,
	//    and the characterization gains the storage-tier lines. StepSeconds
	//    puts compute gaps between bursts so the drain overlaps them.
	bbCfg := iosim.DefaultConfig()
	bbCfg.Storage = iosim.StorageTiered
	bbCfg.BurstBuffer = iosim.DefaultBurstBuffer(1)
	bbCfg.BurstBuffer.NodeCapacity = 4e5 // per-job allocation, not the full 1.6 TB NVMe
	bbCfg.BurstBuffer.DrainBandwidth = 2e8
	bbfs, bbFold := iosim.New(bbCfg, ""), iosim.NewCharacterizeFold()
	bbfs.Attach(bbFold)
	opts := sim.DefaultOptions()
	opts.StepSeconds = 0.01
	bbSim, err := sim.New(cfg, opts, bbfs)
	if err != nil {
		panic(err)
	}
	if err := bbSim.Run(context.Background()); err != nil {
		panic(err)
	}
	bbfs.FlushConsumers()
	fmt.Printf("\nsame run on %q (per-job bb allocation %s/node):\n",
		bbCfg.Storage, report.HumanBytes(int64(bbCfg.BurstBuffer.NodeCapacity)))
	fmt.Print(bbFold.Profile().Render())
	// Output:
	// ran 60 steps to t=0.0008075, wrote 4 plotfiles
	//
	// output ledger (Eq. 2 hierarchy):
	//   step   0  level 0  task 0  81.9 KB
	//   step   0  level 0  task 1  82 KB
	//   step   0  level 0  task 2  82 KB
	//   step   0  level 0  task 3  82 KB
	//   step   0  level 1  task 0  82 KB
	//   step   0  level 2  task 0  82 KB
	//   step  20  level 0  task 0  81.9 KB
	//   step  20  level 0  task 1  82 KB
	//   step  20  level 0  task 2  82 KB
	//   step  20  level 0  task 3  82 KB
	//   step  20  level 1  task 0  82 KB
	//   step  20  level 2  task 0  82 KB
	//   step  40  level 0  task 0  81.9 KB
	//   step  40  level 0  task 1  82 KB
	//   step  40  level 0  task 2  82 KB
	//   step  40  level 0  task 3  82 KB
	//   step  40  level 1  task 0  82 KB
	//   step  40  level 2  task 0  82 KB
	//   step  60  level 0  task 0  81.9 KB
	//   step  60  level 0  task 1  82 KB
	//   step  60  level 0  task 2  82 KB
	//   step  60  level 0  task 3  82 KB
	//   step  60  level 1  task 0  82 KB
	//   step  60  level 2  task 0  35.9 KB
	//   step  60  level 2  task 1  35.9 KB
	//   step  60  level 2  task 2  35.9 KB
	//   step  60  level 2  task 3  35.9 KB
	//
	// re-read sedov_2d_cyl_in_cart_plt00000: version "AMReX-PlotfileProxy-V1.0", 10 variables, finest level 2, t=0
	// level 0 has 4 boxes; first box [(0,0)..(31,31)] holds 10240 values
	//
	// I/O characterization (Darshan-style)
	//   total bytes      : 2032895
	//   write ops        : 47 across 47 files, 4 ranks
	//   metadata ops     : 16 directory creations
	//   write size       : min 68  p50 35910  mean 43253  p95 81955  max 81955
	//   rank imbalance   : 1.853 (max/mean)
	//   bursts           : 4, mean 508224 bytes, inter-arrival 0.0004992s
	//   aggregate bw     : 8.322e+07 B/s
	//   size histogram (log2 buckets):
	//     2^6 ..2^7  : 7
	//     2^7 ..2^8  : 4
	//     2^8 ..2^9  : 9
	//     2^15..2^16 : 4
	//     2^16..2^17 : 23
	//
	// same run on "bb+gpfs" (per-job bb allocation 400 KB/node):
	// I/O characterization (Darshan-style)
	//   total bytes      : 2032895
	//   write ops        : 47 across 47 files, 4 ranks
	//   metadata ops     : 16 directory creations
	//   write size       : min 68  p50 35910  mean 43253  p95 81955  max 81955
	//   rank imbalance   : 1.853 (max/mean)
	//   bursts           : 4, mean 508224 bytes, inter-arrival 0.2006s
	//   aggregate bw     : 3.223e+06 B/s
	//   storage tiers    : bb 1423316 B, gpfs spill 609579 B
	//   burst buffer     : peak fill 1.000, 4 stall stragglers, stall 0.005037s, drain tail 0.008s
	//   size histogram (log2 buckets):
	//     2^6 ..2^7  : 7
	//     2^7 ..2^8  : 4
	//     2^8 ..2^9  : 9
	//     2^15..2^16 : 4
	//     2^16..2^17 : 23
}

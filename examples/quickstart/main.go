// Quickstart: run a small Sedov AMR simulation, write plotfiles to a
// temporary directory on real disk, read one back, and print the
// per-(step, level, task) output ledger — the paper's Eq. (2) hierarchy —
// plus the Darshan-style I/O characterization of the run.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"amrproxyio/internal/inputs"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
	"amrproxyio/internal/report"
	"amrproxyio/internal/sim"
)

func main() {
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
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fsCfg := iosim.DefaultConfig()
	fsCfg.Backend = iosim.RealDisk
	fs := iosim.New(fsCfg, dir)

	// 3. Run.
	s, err := sim.New(cfg, sim.DefaultOptions(), fs)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %d steps to t=%.4g, wrote %d plotfiles under %s\n",
		s.Step, s.Time, s.NPlots(), dir)

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
		log.Fatal(err)
	}
	fmt.Printf("\nre-read %s: version %q, %d variables, finest level %d, t=%g\n",
		root, meta.Version, len(meta.VarNames), meta.FinestLevel, meta.Time)
	level0, err := plotfile.ReadLevelData(filepath.Join(dir, root), 0, len(meta.VarNames))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("level 0 has %d boxes; first box %v holds %d values\n",
		len(level0.Boxes), level0.Boxes[0], len(level0.Data[0]))

	// 6. The Darshan-style profile of everything the run wrote: operation
	//    counts, size percentiles, burst cadence. The filesystem ledger
	//    also counts the plotfile directory creations (metadata ops).
	fmt.Println()
	fmt.Print(iosim.Characterize(fs.Ledger()).Render())

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
	bbfs := iosim.New(bbCfg, "")
	opts := sim.DefaultOptions()
	opts.StepSeconds = 0.01
	bbSim, err := sim.New(cfg, opts, bbfs)
	if err != nil {
		log.Fatal(err)
	}
	if err := bbSim.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame run on %q (per-job bb allocation %s/node):\n",
		bbCfg.Storage, report.HumanBytes(int64(bbCfg.BurstBuffer.NodeCapacity)))
	fmt.Print(iosim.Characterize(bbfs.Ledger()).Render())
}

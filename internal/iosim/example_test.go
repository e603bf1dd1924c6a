package iosim_test

import (
	"fmt"

	"amrproxyio/internal/iosim"
)

// ExampleTopology shows the per-link contention model: two writers packed
// onto one node split that node's NIC, while the same two writers spread
// across nodes each keep a full NIC — the aggregate backend is idle
// either way.
func ExampleTopology() {
	cfg := iosim.Config{
		AggregateBandwidth: 1e12, // backend far from saturated
		PerWriterBandwidth: 2e9,
	}

	// Both ranks on one node: the 2 GB/s NIC splits two ways.
	cfg.Topology = iosim.Topology{Nodes: 2, RanksPerNode: 2, NICBandwidth: 2e9}
	fs := iosim.New(cfg, "")
	fs.BeginBurst(2)
	d, _ := fs.WriteSize(0, "ckpt/rank0", 1e9, iosim.Labels{})
	fmt.Printf("packed: %.1fs\n", d)
	fs.EndBurst()

	// One rank per node: private NICs, no contention.
	cfg.Topology = iosim.Topology{Nodes: 2, RanksPerNode: 1, NICBandwidth: 2e9}
	fs = iosim.New(cfg, "")
	fs.BeginBurst(2)
	d, _ = fs.WriteSize(0, "ckpt/rank0", 1e9, iosim.Labels{})
	fmt.Printf("spread: %.1fs\n", d)
	fs.EndBurst()

	// Output:
	// packed: 1.0s
	// spread: 0.5s
}

// ExampleCharacterizeFold_Bursts summarizes an I/O burst with a fold
// attached before the writes: bytes, file counts, and the
// bulk-synchronous wall time set by the slowest rank.
func ExampleCharacterizeFold_Bursts() {
	cfg := iosim.Config{
		AggregateBandwidth: 1e9,
		PerWriterBandwidth: 1e9,
	}
	fs, fold := iosim.New(cfg, ""), iosim.NewCharacterizeFold()
	fs.Attach(fold)
	fs.BeginBurst(2) // fair share: 0.5 GB/s per writer
	fs.WriteSize(0, "plt00010/Cell_D_00000", 5e8, iosim.Labels{Step: 10})
	fs.WriteSize(1, "plt00010/Cell_D_00001", 1e9, iosim.Labels{Step: 10})
	fs.EndBurst()

	for _, b := range fold.Bursts() {
		fmt.Printf("step %d: %d bytes in %d files, wall %.1fs, %d writers\n",
			b.Step, b.Bytes, b.Files, b.WallSeconds, b.Participants)
	}

	// Output:
	// step 10: 1500000000 bytes in 2 files, wall 2.0s, 2 writers
}

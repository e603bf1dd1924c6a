package amrproxyio_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"amrproxyio/internal/amr"
	"amrproxyio/internal/grid"
	"amrproxyio/internal/iosim"
	"amrproxyio/internal/macsio"
	"amrproxyio/internal/plotfile"
)

// TestWriterErrorReturns: when rank 0's first write fails, each burst
// writer returns the error at once. The RealDisk root here is a regular
// file, so rank 0's Mkdir (plotfile, checkpoint) or root-metadata write
// (size-only MACSio) fails while every other rank's writes would succeed;
// a writer that left those ranks waiting for rank 0 would never return.
func TestWriterErrorReturns(t *testing.T) {
	root := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(root, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	newFS := func() *iosim.FileSystem {
		cfg := iosim.DefaultConfig()
		cfg.Backend = iosim.RealDisk
		return iosim.New(cfg, root)
	}

	const nprocs = 4
	dom := grid.NewBox(grid.IV(0, 0), grid.IV(31, 31))
	ba := amr.SingleBoxArray(dom, 16, 8)
	levels := []plotfile.LevelSpec{{
		Geom: grid.NewGeom(dom, [2]float64{0, 0}, [2]float64{1, 1}),
		BA:   ba,
		DM:   amr.MustDistribute(ba, nprocs, amr.DistKnapsack),
	}}
	mcfg := macsio.DefaultConfig()
	mcfg.NProcs = nprocs
	mcfg.NumDumps = 2
	mcfg.SizeOnly = true

	writers := []struct {
		name  string
		write func() error
	}{
		{"plotfile.Write", func() error {
			_, err := plotfile.Write(newFS(), plotfile.Spec{
				Root: "plt00040", VarNames: []string{"density"}, Step: 40, NProcs: nprocs, Levels: levels,
			})
			return err
		}},
		{"plotfile.WriteCheckpoint", func() error {
			_, err := plotfile.WriteCheckpoint(newFS(), plotfile.CheckpointSpec{
				Root: "chk00040", Step: 40, NComp: 1, NProcs: nprocs, Levels: levels, SizeOnly: true,
			})
			return err
		}},
		{"macsio.Run", func() error {
			_, err := macsio.Run(newFS(), mcfg)
			return err
		}},
	}
	for _, w := range writers {
		done := make(chan error, 1)
		go func() { done <- w.write() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "not a directory") {
				t.Errorf("%s: err = %v, want the failed write's \"not a directory\"", w.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: still running 10 s after rank 0's write failed", w.name)
		}
	}
}

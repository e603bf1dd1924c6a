package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
)

// TestHydroRunIndependentOfWorkers: the sweeps and the dt scan run as one
// pool over the hierarchy and tagging scans its FABs in parallel, but
// every reduction is serial in (level, box) order. So a three-level run
// through regrids and plots ends in the same state, bit for bit, writes
// the same plot records and folds to the same I/O profile at any worker
// count.
func TestHydroRunIndependentOfWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	type outcome struct {
		state   string
		records []plotfile.OutputRecord
		profile iosim.Characterization
	}
	run := func(workers int) outcome {
		runtime.GOMAXPROCS(workers)
		cfg := smallCfg()
		cfg.NCell = [2]int{64, 64}
		cfg.MaxLevel = 2
		cfg.MaxStep = 8
		cfg.PlotInt = 4
		cfg.RegridInt = 2
		fs, fold := modelFS(), iosim.NewCharacterizeFold()
		fs.Attach(fold)
		s, err := New(cfg, DefaultOptions(), fs)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		fs.FlushConsumers()
		if s.FinestLevel() != 2 || s.NPlots() < 2 || s.Step != cfg.MaxStep {
			t.Fatalf("%d workers: finest level %d, %d plots, %d steps; want 2, at least 2, %d",
				workers, s.FinestLevel(), s.NPlots(), s.Step, cfg.MaxStep)
		}
		// Hashed as TestHydroStatePinned hashes a step: dt, then every
		// float of every FAB of every level, ghosts included.
		h := sha256.New()
		var b [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		put(s.LastDt)
		for _, lev := range s.Levels {
			for _, f := range lev.State.FABs {
				for _, v := range f.Data {
					put(v)
				}
			}
		}
		return outcome{hex.EncodeToString(h.Sum(nil)), s.Records(), fold.Profile()}
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if got.state != want.state {
			t.Errorf("%d workers: state digest %s, want %s as at 1 worker", workers, got.state, want.state)
		}
		if !slices.Equal(got.records, want.records) {
			t.Errorf("%d workers: %d plot records differ from the %d at 1 worker", workers, len(got.records), len(want.records))
		}
		if !reflect.DeepEqual(got.profile, want.profile) {
			t.Errorf("%d workers: I/O profile\n%+v\nwant\n%+v", workers, got.profile, want.profile)
		}
	}
}

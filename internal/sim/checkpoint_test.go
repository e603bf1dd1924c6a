package sim

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"amrproxyio/internal/iosim"
	"amrproxyio/internal/plotfile"
)

func realFS(t *testing.T) (*iosim.FileSystem, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := iosim.DefaultConfig()
	cfg.Backend = iosim.RealDisk
	cfg.JitterSigma = 0
	return iosim.New(cfg, dir), dir
}

func TestCheckpointRestartExactResume(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxStep = 10
	cfg.PlotInt = 0
	cfg.RegridInt = 2

	// Reference: run 10 steps straight through.
	ref, err := New(cfg, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for ref.Step < 10 {
		ref.Advance()
		if ref.Step%cfg.RegridInt == 0 {
			if err := ref.Regrid(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Checkpointed: run 6 steps, dump, restart, run 4 more.
	fs, dir := realFS(t)
	first, err := New(cfg, DefaultOptions(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for first.Step < 6 {
		first.Advance()
		if first.Step%cfg.RegridInt == 0 {
			if err := first.Regrid(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := plotfile.WriteCheckpoint(fs, first.CheckpointSpec()); err != nil {
		t.Fatal(err)
	}
	chkDir := filepath.Join(dir, fmt.Sprintf("%s%05d", cfg.CheckFile, 6))
	resumed, err := Restore(chkDir, cfg, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Step != 6 || resumed.Time != first.Time || resumed.LastDt != first.LastDt {
		t.Fatalf("restart state: step=%d time=%g dt=%g, want %d/%g/%g",
			resumed.Step, resumed.Time, resumed.LastDt, first.Step, first.Time, first.LastDt)
	}
	// Resumed hierarchy matches the checkpointed one exactly.
	if len(resumed.Levels) != len(first.Levels) {
		t.Fatalf("levels = %d, want %d", len(resumed.Levels), len(first.Levels))
	}
	for l := range resumed.Levels {
		if resumed.Levels[l].BA.Len() != first.Levels[l].BA.Len() {
			t.Errorf("level %d box count differs", l)
		}
	}
	for resumed.Step < 10 {
		resumed.Advance()
		if resumed.Step%cfg.RegridInt == 0 {
			if err := resumed.Regrid(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The resumed run must match the straight-through run bit-for-bit:
	// same steps, same dt history effects, same state digests.
	if math.Abs(resumed.Time-ref.Time) > 1e-15 {
		t.Errorf("time diverged: %g vs %g", resumed.Time, ref.Time)
	}
	da, db := resumed.StateDigest(), ref.StateDigest()
	if len(da) != len(db) {
		t.Fatalf("level counts differ: %d vs %d", len(da), len(db))
	}
	for l := range da {
		for k := range da[l] {
			if da[l][k] != db[l][k] {
				// Allow tiny roundoff from the restart's fillpatch pass.
				rel := math.Abs(da[l][k]-db[l][k]) / (math.Abs(db[l][k]) + 1e-300)
				if rel > 1e-12 {
					t.Errorf("level %d digest[%d]: %g vs %g", l, k, da[l][k], db[l][k])
				}
			}
		}
	}
}

func TestRestoreRejectsBadInputs(t *testing.T) {
	if _, err := Restore(t.TempDir(), smallCfg(), DefaultOptions(), nil); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

func TestCheckpointBytesMirrorNtoN(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxStep = 4
	cfg.PlotInt = 0
	fs, _ := realFS(t)
	s, err := New(cfg, DefaultOptions(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := plotfile.WriteCheckpoint(fs, s.CheckpointSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no checkpoint records")
	}
	ranks := map[int]bool{}
	for _, r := range recs {
		if r.Bytes <= 0 {
			t.Errorf("bad record %+v", r)
		}
		ranks[r.Rank] = true
	}
	if len(ranks) < 2 {
		t.Errorf("checkpoint not N-to-N: ranks %v", ranks)
	}
}
